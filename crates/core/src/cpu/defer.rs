//! Deferred DRAM-bus timing for cache-hierarchy cores (DESIGN.md §11).
//!
//! A Baseline core's functional execution does not depend on time: its
//! instruction stream, register and window values, and L1/L2 hit, miss
//! and writeback sequence come out the same whenever its fills are
//! granted. Only its cycle count depends on time, through the bus grants
//! of its fills and through waits for pages the firmware has not staged
//! yet. So a round can run the core ahead against a bus nobody else uses
//! ([`Core::run_ahead`], on any thread), logging each instruction whose
//! timing the shared bus could change, and later replay that log against
//! the real bus in serial order ([`Core::replay`]), correcting the core's
//! cycle and stall buckets by what the real bus adds.

use super::{stall_cycles, Core, CoreState, RunOutcome, Slot};
use crate::StreamEnv;
use assasin_isa::csr;
use assasin_mem::{AccessKind, ServedBy, Step};
use assasin_sim::stats::CycleBreakdown;
use assasin_sim::{Clock, SimDur, SimTime};
use std::collections::VecDeque;

/// The stall of a DRAM-window load: cycles charged to the level that
/// served it, then the further wait for its page to be staged.
#[derive(Debug, Clone, Copy)]
pub(super) struct LoadStall {
    served: ServedBy,
    stall: u64,
    wait: u64,
}

impl LoadStall {
    /// An L1 hit on a staged page, costing the core's constant L1 stall.
    pub(super) fn l1(stall: u64) -> Self {
        LoadStall {
            served: ServedBy::L1,
            stall,
            wait: 0,
        }
    }

    /// A load issued at `issue` whose data `served` completes at
    /// `complete`, on a page staged at `avail`.
    pub(super) fn new(
        clock: Clock,
        issue: SimTime,
        complete: SimTime,
        served: ServedBy,
        avail: SimTime,
    ) -> Self {
        let stall = stall_cycles(clock, issue, complete);
        let wait = if avail > complete {
            stall_cycles(clock, issue, avail).saturating_sub(stall)
        } else {
            0
        };
        LoadStall {
            served,
            stall,
            wait,
        }
    }

    fn total(self) -> u64 {
        self.stall + self.wait
    }

    fn bucket(self, b: &mut CycleBreakdown) -> &mut u64 {
        match self.served {
            ServedBy::L1 => &mut b.stall_l1,
            ServedBy::L2 => &mut b.stall_l2,
            ServedBy::Dram | ServedBy::Prefetch => &mut b.stall_dram,
        }
    }

    /// Charges the stall into `b`; returns the cycles it costs.
    pub(super) fn apply(self, b: &mut CycleBreakdown) -> u64 {
        *self.bucket(b) += self.stall;
        b.stall_stream += self.wait;
        self.total()
    }

    /// Takes back what [`LoadStall::apply`] charged.
    fn revert(self, b: &mut CycleBreakdown) {
        *self.bucket(b) -= self.stall;
        b.stall_stream -= self.wait;
    }
}

/// A logged instruction whose timing the shared bus can change.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Issue cycle on the free bus.
    issue: u64,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A load: its next `steps` logged steps, its page's staging time, and
    /// the stall it was charged on the free bus.
    Load {
        steps: usize,
        avail: SimTime,
        stall: LoadStall,
    },
    /// A store: its next `steps` logged steps and the stall it was charged.
    Store { steps: usize, stall: u64 },
    /// The core halted or wedged; [`Core::state`] says which.
    Stop,
}

/// The run-ahead log of a core whose DRAM timing is deferred.
#[derive(Debug)]
pub(super) struct Deferred {
    events: VecDeque<Event>,
    /// The hierarchy steps of the logged loads and stores, in order.
    steps: VecDeque<Step>,
    /// Serial minus free-bus cycle after the last replayed event.
    shift: u64,
    /// The serial cycle while it is known: right after the last replayed
    /// event, until a round limit passes it.
    at: Option<u64>,
    /// Largest cost, in cycles, of an instruction that logs no event.
    max_fixed: u64,
}

/// Does an access with these steps use the bus?
fn posts(steps: &[Step]) -> bool {
    steps
        .iter()
        .any(|s| matches!(s, Step::Writeback | Step::Fill | Step::Prefetch(_)))
}

impl Deferred {
    /// Logs a load that uses the bus, or whose page was not staged by its
    /// free-bus completion: the serial completion can only be later, so
    /// any other load costs the same on both buses.
    #[inline]
    pub(super) fn log_load(
        &mut self,
        issue: SimTime,
        steps: &[Step],
        avail: SimTime,
        complete: SimTime,
        stall: LoadStall,
        clock: Clock,
    ) {
        if avail > complete || posts(steps) {
            self.log(
                issue,
                steps,
                clock,
                Kind::Load {
                    steps: steps.len(),
                    avail,
                    stall,
                },
            );
        }
    }

    /// Logs a store that uses the bus. A store's stall does not depend on
    /// the bus, but its transfers must be booked in serial order.
    pub(super) fn log_store(&mut self, issue: SimTime, steps: &[Step], stall: u64, clock: Clock) {
        if posts(steps) {
            self.log(
                issue,
                steps,
                clock,
                Kind::Store {
                    steps: steps.len(),
                    stall,
                },
            );
        }
    }

    fn log(&mut self, issue: SimTime, steps: &[Step], clock: Clock, kind: Kind) {
        self.steps.extend(steps);
        self.events.push_back(Event {
            issue: issue.as_ps() / clock.period_ps(),
            kind,
        });
    }
}

impl Core {
    /// Can this core's DRAM-bus timing be deferred? It can when its
    /// hierarchy has no prefetcher and its program has no stream, bank or
    /// `CYCLE`-CSR instruction, so nothing it computes depends on time,
    /// and when no instruction that logs no event costs more than one
    /// `epoch`, which bounds the wake-up [`Core::replay`] reports.
    pub fn can_defer_dram_timing(&self, epoch: SimDur) -> bool {
        self.max_fixed_cycles(epoch).is_some()
    }

    /// Defers this core's DRAM-bus timing if it can be (see
    /// [`Core::can_defer_dram_timing`]). From then on [`Core::run_ahead`]
    /// and [`Core::replay`] drive the core in place of [`Core::run`],
    /// until the replay reaches its halt ([`Core::defers_dram_timing`]).
    pub fn defer_dram_timing(&mut self, epoch: SimDur) {
        let Some(max_fixed) = self.max_fixed_cycles(epoch) else {
            return;
        };
        self.defer = Some(Box::new(Deferred {
            events: VecDeque::new(),
            steps: VecDeque::new(),
            shift: 0,
            at: Some(self.cycle),
            max_fixed,
        }));
    }

    /// The largest cost of an instruction that logs no event, if the
    /// core's timing can be deferred under `epoch`.
    fn max_fixed_cycles(&self, epoch: SimDur) -> Option<u64> {
        let h = *self.hierarchy.as_ref()?.config();
        if h.prefetch || self.state != CoreState::Running {
            return None;
        }
        let clock = self.cfg.clock;
        let mut stall = [
            self.cfg.branch_penalty as u64,
            self.cfg.scratchpad_cycles.saturating_sub(1) as u64,
            self.l1_stall,
            stall_cycles(clock, SimTime::ZERO, SimTime::ZERO + h.l2_hit),
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        for slot in self.code.iter() {
            match *slot {
                Slot::StreamLoad { .. }
                | Slot::StreamStore { .. }
                | Slot::StreamAvail { .. }
                | Slot::StreamEos { .. }
                | Slot::BufSwap { .. }
                | Slot::SlAlu { .. }
                | Slot::SlBranch { .. }
                | Slot::Sl2 { .. } => return None,
                Slot::CsrR { csr, .. } if csr == csr::CYCLE => return None,
                Slot::MulDiv { stall: s, .. } => stall = stall.max(s),
                _ => {}
            }
        }
        let max_fixed = 1 + stall;
        (max_fixed.saturating_mul(clock.period_ps()) <= epoch.as_ps()).then_some(max_fixed)
    }

    /// Is this core's DRAM timing deferred, with its halt not yet
    /// replayed?
    pub fn defers_dram_timing(&self) -> bool {
        self.defer.is_some()
    }

    /// Phase 1 of a deferred round: runs the core against a free DRAM bus
    /// until its clock reaches `deadline`, or it halts or wedges, logging
    /// every instruction whose timing the shared bus can change, and the
    /// halt or wedge. The free-bus clock never runs ahead of the serial
    /// one — the shared bus never grants a fill earlier, and every timing
    /// step is monotone — so this covers at least the instructions a
    /// serial round would run. `env` is the core's private feed, which a
    /// deferred program never calls.
    pub fn run_ahead(&mut self, env: &mut dyn StreamEnv, deadline: SimTime) {
        if self.state != CoreState::Running {
            return;
        }
        let (_, issue) = self.dispatch::<false>(env, deadline.as_ps() / self.cfg.clock.period_ps());
        if self.state != CoreState::Running {
            if let Some(d) = &mut self.defer {
                d.events.push_back(Event {
                    issue,
                    kind: Kind::Stop,
                });
            }
        }
    }

    /// Phase 2 of a deferred round, on the thread that owns the shared
    /// DRAM: replays, in order, the logged events a serial round to
    /// `deadline` reaches, booking their transfers on the real bus and
    /// correcting the core's cycle and stall buckets by the difference.
    ///
    /// Reports what [`Core::run`] would, with one exception: when the
    /// round ends among instructions that log no event, the serial
    /// wake-up is not known, and the bound `deadline` plus one maximum
    /// fixed cost is reported instead. That bound is at most one epoch
    /// past the deadline (see [`Core::defer_dram_timing`]), so it never
    /// makes the round loop skip an epoch, and neither does the serial
    /// wake-up it stands for.
    pub fn replay(&mut self, deadline: SimTime) -> RunOutcome {
        let clock = self.cfg.clock;
        let period = clock.period_ps();
        let limit = deadline.as_ps() / period;
        let (Some(mut d), Some(hier)) = (self.defer.take(), self.hierarchy.as_mut()) else {
            return self.outcome();
        };
        loop {
            if let Some(at) = d.at.filter(|&at| at >= limit) {
                self.defer = Some(d);
                return RunOutcome::BlockedUntil(SimTime::from_ps((at + 1) * period));
            }
            let Some(&ev) = d.events.front() else {
                break;
            };
            let issue = ev.issue + d.shift;
            if issue >= limit {
                break;
            }
            d.events.pop_front();
            let ready = clock.cycle_time(SimTime::ZERO, issue);
            let (charged, actual) = match ev.kind {
                Kind::Load {
                    steps,
                    avail,
                    stall,
                } => {
                    let logged = &d.steps.make_contiguous()[..steps];
                    let (complete, served) = hier.price(AccessKind::Load, logged, ready);
                    d.steps.drain(..steps);
                    stall.revert(&mut self.breakdown);
                    let actual = LoadStall::new(clock, ready, complete, served, avail);
                    (stall.total(), actual.apply(&mut self.breakdown))
                }
                Kind::Store { steps, stall } => {
                    let logged = &d.steps.make_contiguous()[..steps];
                    let (complete, _) = hier.price(AccessKind::Store, logged, ready);
                    d.steps.drain(..steps);
                    let actual = stall_cycles(clock, ready, complete);
                    self.breakdown.stall_l1 = self.breakdown.stall_l1 - stall + actual;
                    (stall, actual)
                }
                Kind::Stop => {
                    self.cycle += d.shift;
                    return self.outcome();
                }
            };
            // The serial end of this instruction is never earlier than
            // its free-bus end, though a page wait can absorb part of an
            // earlier delay.
            debug_assert!(
                d.shift + actual >= charged,
                "serial time behind free-bus time"
            );
            d.shift = (d.shift + actual).saturating_sub(charged);
            d.at = Some(issue + 1 + actual);
        }
        d.at = None;
        let wake = SimTime::from_ps((limit + d.max_fixed) * period);
        self.defer = Some(d);
        RunOutcome::BlockedUntil(wake)
    }
}
