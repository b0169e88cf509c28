//! Experiment sizing.

/// Input sizes for the experiments. The paper uses 8 GiB arrays and TPC-H
//  SF 10; all reported metrics are steady-state rates, which converge at
/// MiB scale in this simulator, so the default keeps full runs under a few
/// minutes. Scale up via `ASSASIN_SCALE` (a multiplier) for longer runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Bytes per standalone-function input stream (Figure 13).
    pub standalone_bytes: usize,
    /// Bytes for the AES input (AES simulates ~70 instructions/byte, so it
    /// gets a smaller input at equal simulated fidelity).
    pub aes_bytes: usize,
    /// TPC-H scale factor for PSF and end-to-end runs.
    pub sf: f64,
    /// Bytes scanned per core-count point in the scalability sweep.
    pub scalability_bytes: usize,
    /// RNG seed for dataset generation.
    pub seed: u64,
}

impl Scale {
    /// The default experiment scale (CI-friendly).
    pub fn default_scale() -> Scale {
        Scale {
            standalone_bytes: 4 << 20,
            aes_bytes: 512 << 10,
            sf: 0.01,
            scalability_bytes: 16 << 20,
            seed: 0xA55A,
        }
    }

    /// A tiny scale for integration tests.
    pub fn test_scale() -> Scale {
        Scale {
            standalone_bytes: 256 << 10,
            aes_bytes: 64 << 10,
            sf: 0.002,
            scalability_bytes: 1 << 20,
            seed: 0xA55A,
        }
    }

    /// Reads `ASSASIN_SCALE` as a multiplier over the default scale
    /// (unset means 1).
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but not a positive finite number
    /// (see [`parse_scale`]): a typo must not run silently at scale 1.
    pub fn from_env() -> Scale {
        let mult = match std::env::var("ASSASIN_SCALE") {
            Err(std::env::VarError::NotPresent) => 1.0,
            Err(e) => panic!("ASSASIN_SCALE is not valid unicode: {e}"),
            Ok(v) => {
                parse_scale(&v).unwrap_or_else(|why| panic!("invalid ASSASIN_SCALE {v:?}: {why}"))
            }
        };
        let d = Scale::default_scale();
        Scale {
            standalone_bytes: (d.standalone_bytes as f64 * mult) as usize,
            aes_bytes: (d.aes_bytes as f64 * mult) as usize,
            sf: d.sf * mult,
            scalability_bytes: (d.scalability_bytes as f64 * mult) as usize,
            seed: d.seed,
        }
    }
}

/// Parses an `ASSASIN_SCALE` value: a positive, finite multiplier.
///
/// # Errors
///
/// Describes the problem for anything else — `"abc"`, `""`, `"0"`,
/// `"-1"`, `"inf"`, `"NaN"` all fail, the same convention as
/// `assasin_parallel::parse_thread_env`.
pub fn parse_scale(value: &str) -> Result<f64, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Err("empty value (unset the variable to use scale 1)".into());
    }
    match trimmed.parse::<f64>() {
        Ok(m) if !m.is_finite() => Err(format!("scale must be finite, got {m}")),
        Ok(m) if m <= 0.0 => Err(format!("scale must be positive, got {m}")),
        Ok(m) => Ok(m),
        Err(e) => Err(format!("not a number: {e}")),
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_positive() {
        for s in [Scale::default_scale(), Scale::test_scale()] {
            assert!(s.standalone_bytes > 0 && s.aes_bytes > 0);
            assert!(s.sf > 0.0);
        }
    }

    #[test]
    fn scale_parse_accepts_positive_multipliers() {
        assert_eq!(parse_scale("1"), Ok(1.0));
        assert_eq!(parse_scale(" 4 "), Ok(4.0));
        assert_eq!(parse_scale("0.25"), Ok(0.25));
        assert_eq!(parse_scale("1e1"), Ok(10.0));
    }

    #[test]
    fn scale_parse_rejects_malformed_zero_negative_and_non_finite() {
        for bad in [
            "", "  ", "abc", "4x", "0", "0.0", "-1", "-0.5", "inf", "-inf", "NaN",
        ] {
            assert!(
                parse_scale(bad).is_err(),
                "{bad:?} must be rejected, not silently defaulted"
            );
        }
    }
}
