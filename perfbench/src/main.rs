//! End-to-end and per-layer benchmark of the ASSASIN simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch_scan|offload_rw|serve_array> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run lasts `--seconds`, split into cycles of a set-up followed by
//! repeats of the workload. Every repeat starts from the same state, so
//! its digest of simulated observables must repeat exactly. `setup_s` is
//! the fastest set-up and `wall_s` the sum of each step's fastest time:
//! the host's CPU speed swings too much within seconds for medians to
//! repeat. The untraced run (`--trace 0`) reports the end-to-end
//! metrics; the traced run (`--trace 1`) alternates untraced and traced
//! repeats, reports the per-layer metrics and the tracing overhead, and
//! writes the spans as Chrome trace-event JSON under `perfbench/out/`.
//! The last line of standard output is the JSON result. See README.md.

mod args;
mod metrics;
mod offload;
mod serve;
mod tally;
mod tpch;
mod trace;

use args::{Args, WorkloadName};
use assasin_ssd::{cosim_counters, fork_counters};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tally::{Checks, Counts, Digest};

/// A benchmark workload: built from a seed, run repeatedly from the same
/// starting state.
pub trait Workload: Sized {
    /// Generates the inputs from `seed` and builds the preconditioned
    /// state every repeat starts from.
    ///
    /// # Errors
    ///
    /// Describes a set-up failure (the run is then refused).
    fn setup(seed: u64) -> Result<Self, String>;

    /// The expected outputs, which depend on the seed alone.
    type Expected;

    /// Computes the expected outputs (untimed).
    fn reference(&self) -> Self::Expected;

    /// Runs the workload once, timing each of its steps. Failures are
    /// recorded, not returned, so that `finish` can count them.
    fn run(&mut self, steps: &mut Steps);

    /// Checks the last run's outputs and reports its simulated
    /// observables (untimed).
    fn finish(
        &mut self,
        expected: &Self::Expected,
        counts: &mut Counts,
        digest: &mut Digest,
        checks: &mut Checks,
    );
}

/// Host time of each step of one repeat, in order.
#[derive(Debug, Default)]
pub struct Steps(Vec<f64>);

impl Steps {
    /// Runs `f` as the next step.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }
}

/// Keeps, step by step, the fastest time seen.
fn keep_best(best: &mut Vec<f64>, steps: &Steps) {
    if best.is_empty() {
        best.clone_from(&steps.0);
    }
    for (b, s) in best.iter_mut().zip(&steps.0) {
        *b = b.min(*s);
    }
}

/// The measured phase is split into this many cycles, each a set-up
/// followed by repeats, so set-ups and repeats both sample the whole run.
const CYCLES: u32 = 6;
/// Cycles per run at least, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;

/// Everything one run measured.
pub struct Measured {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each untraced and each traced repeat.
    pub plain_s: Vec<f64>,
    /// See `plain_s`.
    pub traced_s: Vec<f64>,
    /// Per step, the fastest untraced and the fastest traced time.
    pub best_plain: Vec<f64>,
    /// See `best_plain`.
    pub best_traced: Vec<f64>,
    /// Counts of the last repeat (every repeat's are identical when the
    /// digests are).
    pub counts: Counts,
    /// Distinct digests seen across repeats (one when deterministic).
    pub digests: Vec<u64>,
    /// Output checks over every repeat.
    pub checks: Checks,
    /// Spans of the traced set-ups and repeats.
    pub spans: Vec<trace::Span>,
}

fn measure<W: Workload>(args: &Args) -> Result<Measured, String> {
    let mut m = Measured {
        setup_s: Vec::new(),
        plain_s: Vec::new(),
        traced_s: Vec::new(),
        best_plain: Vec::new(),
        best_traced: Vec::new(),
        counts: Counts::new(),
        digests: Vec::new(),
        checks: Checks::default(),
        spans: Vec::new(),
    };
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let slice = Duration::from_secs(args.seconds) / CYCLES;
    let mut w = setup::<W>(args, &mut m)?;
    let expected = w.reference();
    let start = Instant::now();
    loop {
        let cycle_end = Instant::now() + slice;
        loop {
            for &traced in modes {
                repeat(&mut w, &expected, traced, &mut m);
            }
            if Instant::now() >= cycle_end {
                break;
            }
        }
        if m.setup_s.len() >= MIN_CYCLES && start.elapsed().as_secs() >= args.seconds {
            break;
        }
        // Set-ups are deterministic, so every repeat of every cycle must
        // produce the same digest.
        drop(w);
        w = setup::<W>(args, &mut m)?;
    }
    m.spans = trace::take();
    Ok(m)
}

/// Sets the workload up, timing it.
fn setup<W: Workload>(args: &Args, m: &mut Measured) -> Result<W, String> {
    trace::set_enabled(args.trace);
    trace::set_request(m.setup_s.len() as u64);
    let t = Instant::now();
    let open = trace::begin("bench.setup");
    let w = W::setup(args.seed);
    trace::end(open);
    m.setup_s.push(t.elapsed().as_secs_f64());
    trace::set_enabled(false);
    w
}

/// Runs one repeat and records its times, counts, digest and checks.
fn repeat<W: Workload>(w: &mut W, expected: &W::Expected, traced: bool, m: &mut Measured) {
    trace::set_enabled(traced);
    trace::set_request(0);
    let (rounds, skipped) = cosim_counters();
    let (forks, shared) = fork_counters();
    let mut steps = Steps::default();
    let t = Instant::now();
    let open = trace::begin("bench.iteration");
    w.run(&mut steps);
    trace::end(open);
    let secs = t.elapsed().as_secs_f64();
    let (rounds2, skipped2) = cosim_counters();
    let (forks2, shared2) = fork_counters();
    trace::set_enabled(false);
    if traced {
        m.traced_s.push(secs);
        keep_best(&mut m.best_traced, &steps);
    } else {
        m.plain_s.push(secs);
        keep_best(&mut m.best_plain, &steps);
    }
    let mut counts = Counts::from([
        ("ssd.cosim_rounds", (rounds2 - rounds) as f64),
        ("ssd.epochs_skipped", (skipped2 - skipped) as f64),
        ("snap.forks", (forks2 - forks) as f64),
        ("snap.pages_shared", (shared2 - shared) as f64),
    ]);
    let mut digest = Digest::default();
    digest.u64(steps.0.len() as u64);
    w.finish(expected, &mut counts, &mut digest, &mut m.checks);
    // The array's worker count depends on the host, not the model.
    for (k, v) in counts.iter().filter(|(k, _)| **k != "array.workers") {
        digest.blob(k.as_bytes());
        digest.f64(*v);
    }
    if !m.digests.contains(&digest.value()) {
        m.digests.push(digest.value());
    }
    m.counts = counts;
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let measured = match args.workload {
        WorkloadName::TpchScan => measure::<tpch::Tpch>(&args),
        WorkloadName::OffloadRw => measure::<offload::OffloadRw>(&args),
        WorkloadName::ServeArray => measure::<serve::ServeArray>(&args),
    };
    match measured.and_then(|m| metrics::report(&args, &m)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
