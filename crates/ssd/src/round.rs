//! The co-simulation round loop, run in two phases (DESIGN.md §11).
//!
//! Phase 1 runs two kinds of core on a helper thread leased from
//! `assasin_parallel`'s budget and on the calling thread at once:
//!
//! - every running core without a cache hierarchy (AssasinSb,
//!   AssasinSp), up to the round deadline, to halt, or to just before its
//!   first shared-backend call ([`Core::run_local`]), against its private
//!   [`CoreFeed`] only;
//! - every core whose DRAM-bus timing is deferred (Baseline; see
//!   [`Core::defer_dram_timing`]), up to the deadline against a free bus
//!   ([`Core::run_ahead`]), logging the instructions the shared bus could
//!   delay.
//!
//! Phase 2 then walks the cores in order on the calling thread: each
//! finishes its round against the [`SharedPlane`], or replays the part of
//! its log a serial round would reach against the real DRAM bus
//! ([`Core::replay`]). The shared calls and bus transfers therefore happen
//! in exactly the order of a serial loop — all of core 0's, then all of
//! core 1's — and the result is bit-identical to it. Without a helper
//! thread phase 1 is skipped and phase 2 alone is that serial loop.

use crate::backend::{CoreEnv, CoreFeed, SharedPlane};
use crate::config::CosimMode;
use crate::counters::record_cosim;
use crate::{SsdConfig, SsdError};
use assasin_core::{Core, CoreState, RunOutcome};
use assasin_sim::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard};

/// Why the round loop ended without every core halting.
pub(crate) enum Stop {
    /// A core wedged; the first in core order, as the serial loop finds it.
    Wedged(String),
    /// The round budget ran out.
    Stuck { rounds: u64, deadline: SimTime },
    /// The round budget ran out with deferred timing, where the cores'
    /// serial state is not known: the request must be re-run serially
    /// from its start for the [`Stop::Stuck`] report.
    Rerun,
    /// A typed failure from the data plane.
    Failed(SsdError),
}

/// One core with its private feed: everything phase 1 touches.
struct Lane {
    core: Core,
    feed: CoreFeed,
    phase1: Phase1,
}

/// What phase 1 did with a lane in the current round.
enum Phase1 {
    /// Not run: no helper, a serial hierarchy core, not running, or a
    /// deferred core (phase 2 replays those whatever phase 1 did).
    Idle,
    /// Ran to the end of its round: the outcome [`Core::run`] reports.
    Finished(RunOutcome),
    /// Stopped before its first shared-backend call.
    Parked,
}

fn lock(lane: &Mutex<Lane>) -> MutexGuard<'_, Lane> {
    lane.lock().expect("lane lock poisoned: a core panicked")
}

/// Runs the request's rounds until every core halts. `cores` and `feeds`
/// are index-aligned and come back in the same order, whatever happens.
pub(crate) fn run_rounds(
    cfg: &SsdConfig,
    cores: &mut Vec<Core>,
    feeds: &mut Vec<CoreFeed>,
    shared: &mut SharedPlane<'_>,
    threaded: bool,
) -> Result<(), Stop> {
    let lanes: Vec<Mutex<Lane>> = cores
        .drain(..)
        .zip(feeds.drain(..))
        .map(|(core, feed)| {
            Mutex::new(Lane {
                core,
                feed,
                phase1: Phase1::Idle,
            })
        })
        .collect();
    // Cores with a cache hierarchy fill over the shared DRAM bus, so they
    // join phase 1 only when their bus timing can be deferred (Baseline);
    // Prefetch and Sb$ cores run serially in phase 2.
    let work: Vec<usize> = (0..lanes.len())
        .filter(|&i| {
            let core = &lock(&lanes[i]).core;
            core.hierarchy().is_none() || core.can_defer_dram_timing(cfg.epoch)
        })
        .collect();
    let result = if threaded && work.len() >= 2 {
        for &i in &work {
            lock(&lanes[i]).core.defer_dram_timing(cfg.epoch);
        }
        let crew = Crew::default();
        std::thread::scope(|s| {
            s.spawn(|| crew.work(&lanes, &work));
            let _dismiss = Dismiss(&crew);
            rounds(cfg, &lanes, shared, Some((&crew, &work)))
        })
    } else {
        rounds(cfg, &lanes, shared, None)
    };
    for lane in lanes {
        let lane = lane
            .into_inner()
            .expect("lane lock poisoned: a core panicked");
        cores.push(lane.core);
        feeds.push(lane.feed);
    }
    result
}

/// The round loop proper. Deadlines advance one epoch per round, or jump
/// to the epoch boundary covering the earliest wake-up in event-driven
/// mode (every backend interaction is demand-driven from inside core
/// execution, so a round in which no core runs has no side effects).
fn rounds(
    cfg: &SsdConfig,
    lanes: &[Mutex<Lane>],
    shared: &mut SharedPlane<'_>,
    crew: Option<(&Crew, &[usize])>,
) -> Result<(), Stop> {
    let epoch = cfg.epoch;
    let mut deadline = SimTime::ZERO + epoch;
    let mut rounds: u64 = 0;
    let mut epochs_skipped: u64 = 0;
    loop {
        if let Some((crew, work)) = crew {
            crew.phase1(rounds + 1, deadline, lanes, work)?;
        }
        let mut all_done = true;
        let mut min_wake: Option<SimTime> = None;
        for lane in lanes {
            let mut guard = lock(lane);
            let Lane { core, feed, phase1 } = &mut *guard;
            let outcome = match std::mem::replace(phase1, Phase1::Idle) {
                Phase1::Finished(outcome) => outcome,
                Phase1::Parked => core.run(&mut CoreEnv { feed, shared }, deadline),
                Phase1::Idle if core.defers_dram_timing() => core.replay(deadline),
                Phase1::Idle if core.state() == &CoreState::Running => {
                    core.run(&mut CoreEnv { feed, shared }, deadline)
                }
                Phase1::Idle => continue,
            };
            match outcome {
                RunOutcome::BlockedUntil(wake) => {
                    all_done = false;
                    min_wake = Some(min_wake.map_or(wake, |m| m.min(wake)));
                }
                RunOutcome::Halted | RunOutcome::Wedged => {
                    if let CoreState::Wedged(m) = core.state() {
                        return Err(Stop::Wedged(m.clone()));
                    }
                }
            }
        }
        shared.take_failure().map_err(Stop::Failed)?;
        if all_done {
            record_cosim(rounds, epochs_skipped);
            return Ok(());
        }
        rounds += 1;
        if rounds > cfg.max_rounds {
            // A core still deferring is ahead of its serial state.
            if lanes
                .iter()
                .any(|lane| lock(lane).core.defers_dram_timing())
            {
                return Err(Stop::Rerun);
            }
            record_cosim(rounds, epochs_skipped);
            return Err(Stop::Stuck { rounds, deadline });
        }
        let next = deadline + epoch;
        deadline = match (cfg.cosim, min_wake) {
            (CosimMode::EventDriven, Some(wake)) if wake > next => {
                let jumped = wake.round_up_to(epoch);
                epochs_skipped += (jumped.as_ps() - next.as_ps()) / epoch.as_ps();
                jumped
            }
            _ => next,
        };
    }
}

/// Phase 1 for one lane: a running core runs against its own feed, or a
/// deferred core runs ahead.
fn run_phase1(lane: &Mutex<Lane>, deadline: SimTime) {
    let mut guard = lock(lane);
    let Lane { core, feed, phase1 } = &mut *guard;
    if core.defers_dram_timing() {
        core.run_ahead(feed, deadline);
    } else if core.state() == &CoreState::Running {
        *phase1 = match core.run_local(feed, deadline) {
            Some(outcome) => Phase1::Finished(outcome),
            None => Phase1::Parked,
        };
    }
}

/// Spins before yielding: a round trip through a parked thread costs
/// more than most rounds' phase 1.
const SPINS_BEFORE_YIELD: u32 = 1 << 14;

fn backoff(spins: &mut u32) {
    if *spins < SPINS_BEFORE_YIELD {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Phase 1 shared between the calling thread and one helper thread,
/// which spins between rounds. Lanes are claimed one at a time, so
/// either thread takes whichever lane is next.
#[derive(Default)]
struct Crew {
    /// `round << 32 | next unclaimed slot`. A claim names its round, so a
    /// claim attempted late in a finished round cannot take a lane of the
    /// next one.
    cursor: AtomicU64,
    /// The published round's deadline in ps, written before the round.
    deadline_ps: AtomicU64,
    /// Lanes of the published round that finished phase 1.
    finished: AtomicUsize,
    /// The round loop has ended: the helper exits.
    dismissed: AtomicBool,
    /// The helper thread unwound; its panic surfaces at the join.
    lost: AtomicBool,
}

/// Dismisses the helper when the round loop ends, by return or unwind.
struct Dismiss<'c>(&'c Crew);

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        self.0.dismissed.store(true, SeqCst);
    }
}

/// Marks the helper lost if it unwinds, so the calling thread stops
/// waiting for it.
struct Lost<'c>(&'c Crew);

impl Drop for Lost<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lost.store(true, SeqCst);
        }
    }
}

impl Crew {
    fn claim(&self, round: u64, lanes: usize) -> Option<usize> {
        let mut cur = self.cursor.load(SeqCst);
        loop {
            let slot = (cur & u64::from(u32::MAX)) as usize;
            if cur >> 32 != round || slot >= lanes {
                return None;
            }
            match self
                .cursor
                .compare_exchange_weak(cur, cur + 1, SeqCst, SeqCst)
            {
                Ok(_) => return Some(slot),
                Err(now) => cur = now,
            }
        }
    }

    fn run_claims(&self, round: u64, deadline: SimTime, lanes: &[Mutex<Lane>], work: &[usize]) {
        while let Some(slot) = self.claim(round, work.len()) {
            run_phase1(&lanes[work[slot]], deadline);
            self.finished.fetch_add(1, SeqCst);
        }
    }

    /// Publishes round `round`, works on it, and waits for the helper's
    /// last lane.
    fn phase1(
        &self,
        round: u64,
        deadline: SimTime,
        lanes: &[Mutex<Lane>],
        work: &[usize],
    ) -> Result<(), Stop> {
        self.deadline_ps.store(deadline.as_ps(), SeqCst);
        self.finished.store(0, SeqCst);
        self.cursor.store(round << 32, SeqCst);
        self.run_claims(round, deadline, lanes, work);
        let mut spins = 0;
        while self.finished.load(SeqCst) < work.len() {
            if self.lost.load(SeqCst) {
                return Err(Stop::Failed(SsdError::Invariant(
                    "phase-1 helper thread panicked".into(),
                )));
            }
            backoff(&mut spins);
        }
        Ok(())
    }

    /// The helper thread: take lanes of each newly published round until
    /// dismissed.
    fn work(&self, lanes: &[Mutex<Lane>], work: &[usize]) {
        let _lost = Lost(self);
        let mut seen = 0;
        let mut spins = 0;
        while !self.dismissed.load(SeqCst) {
            let round = self.cursor.load(SeqCst) >> 32;
            if round == seen {
                backoff(&mut spins);
                continue;
            }
            seen = round;
            spins = 0;
            let deadline = SimTime::from_ps(self.deadline_ps.load(SeqCst));
            self.run_claims(round, deadline, lanes, work);
        }
    }
}
