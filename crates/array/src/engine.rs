//! Per-device execution engine: serial or worker-threaded, with a
//! deterministic completion merge.
//!
//! Devices never migrate between threads: each worker thread *builds
//! and owns* its devices — forked on-thread from a shared
//! `Arc<SsdImage>` or constructed fresh from the (Copy, Send) config —
//! and only command/reply values cross the channel. The calling
//! thread is executor 0 and runs its own share of devices while the
//! workers run theirs, the same caller-participates shape as
//! `assasin_parallel::par_map`.
//!
//! Determinism does not depend on scheduling: every command runs
//! against a quiesced device and reports a standalone elapsed time, and
//! commands for one device always execute in issue (`seq`) order on the
//! one thread that owns it. The host rebuilds global time afterwards —
//! per-device clocks, then the `(completion, device, seq)` merge that
//! fixes the order in which the shared root link is charged.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use assasin_ftl::Lpa;
use assasin_parallel::{claim_threads, ThreadLease};
use assasin_sim::{SimDur, SimTime};
use assasin_ssd::{ScompRequest, ScompResult, Ssd, SsdConfig, SsdError, SsdImage};

use crate::config::ArrayExec;

/// How an executor builds the devices it owns. Cheap to clone and
/// `Send`: per-device configs plus an optional shared preconditioned
/// image every device forks from.
#[derive(Clone)]
pub(crate) struct DeviceSource {
    pub cfgs: Arc<Vec<SsdConfig>>,
    pub image: Option<Arc<SsdImage>>,
}

impl DeviceSource {
    fn build(&self, device: usize) -> Ssd {
        let cfg = self.cfgs[device];
        match &self.image {
            Some(img) => img.fork(cfg),
            None => Ssd::new(cfg),
        }
    }
}

/// One command against one device. Everything here is `Send`; the
/// device itself never moves.
pub(crate) enum DeviceCmd {
    /// Untimed dataset load (`Ssd::load_object` semantics).
    Store { first_lpa: u64, data: Arc<[u8]> },
    /// Timed conventional read of `bytes` spanning `lpas`.
    Read { lpas: Vec<Lpa>, bytes: u64 },
    /// Timed on-device computation.
    Scomp { req: Box<ScompRequest> },
    /// Swap in a factory-blank replacement device (rebuild target).
    Replace,
    /// Test hook: panic while executing. With `caught: false` the panic
    /// fires *outside* the per-command catch on a worker thread, killing
    /// it, so the coordinator's channel-disconnect recovery is
    /// exercisable.
    #[cfg(test)]
    Panic { caught: bool },
}

pub(crate) enum DeviceReply {
    Store { lpas: Vec<Lpa> },
    Read { data: Vec<u8>, elapsed: SimDur },
    Scomp { result: Box<ScompResult> },
    Replaced,
}

fn exec(
    ssd: &mut Ssd,
    source: &DeviceSource,
    device: usize,
    cmd: DeviceCmd,
) -> Result<DeviceReply, SsdError> {
    match cmd {
        DeviceCmd::Store { first_lpa, data } => {
            let lpas = ssd.load_object(first_lpa, &data)?;
            Ok(DeviceReply::Store { lpas })
        }
        DeviceCmd::Read { lpas, bytes } => {
            let r = ssd.read_lpas(&lpas, bytes)?;
            Ok(DeviceReply::Read {
                data: r.data,
                elapsed: r.elapsed,
            })
        }
        DeviceCmd::Scomp { req } => Ok(DeviceReply::Scomp {
            result: Box::new(ssd.scomp(&req)?),
        }),
        DeviceCmd::Replace => {
            // A replacement drive is factory-blank: same config, no
            // image fork (the rebuild repopulates it from its peers).
            *ssd = Ssd::new(source.cfgs[device]);
            Ok(DeviceReply::Replaced)
        }
        #[cfg(test)]
        DeviceCmd::Panic { .. } => panic!("injected device panic"),
    }
}

/// Why one command failed: a typed device error, or an executor failure
/// (a panic captured from the command, or a device taken offline by an
/// earlier one). The array layer maps these onto `ArrayError::Device`
/// and `ArrayError::WorkerFailed` respectively.
pub(crate) enum ExecError {
    Device(SsdError),
    Worker(String),
}

/// Renders a captured panic payload for the typed error surface.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Runs one command against the executor's owned devices, catching
/// panics. A panicking command poisons its device (the `Ssd`'s internal
/// invariants may no longer hold), so the device is dropped from the
/// owned set; later commands against it fail with a typed error — except
/// `Replace`, which installs a factory-blank drive and brings the slot
/// back, the same degrade-then-rebuild path as a media failure.
fn run_cmd(
    owned: &mut HashMap<usize, Ssd>,
    source: &DeviceSource,
    dev: usize,
    cmd: DeviceCmd,
) -> Result<DeviceReply, ExecError> {
    let Some(ssd) = owned.get_mut(&dev) else {
        if matches!(cmd, DeviceCmd::Replace) {
            owned.insert(dev, Ssd::new(source.cfgs[dev]));
            return Ok(DeviceReply::Replaced);
        }
        return Err(ExecError::Worker(format!(
            "device {dev} is offline after an earlier panic (Replace brings it back)"
        )));
    };
    match catch_unwind(AssertUnwindSafe(|| exec(ssd, source, dev, cmd))) {
        Ok(reply) => reply.map_err(ExecError::Device),
        Err(payload) => {
            owned.remove(&dev);
            Err(ExecError::Worker(panic_message(payload)))
        }
    }
}

/// Test hook: lets `DeviceCmd::Panic { caught: false }` blow up a worker
/// thread *outside* the per-command catch, so the coordinator's
/// disconnect recovery has something real to recover from.
#[cfg(test)]
fn worker_crash_hook(cmd: &DeviceCmd) {
    if let DeviceCmd::Panic { caught: false } = cmd {
        panic!("injected worker crash");
    }
}
#[cfg(not(test))]
fn worker_crash_hook(_cmd: &DeviceCmd) {}

type CmdBatch = Vec<(u64, usize, DeviceCmd)>;
type ReplyBatch = Vec<(u64, Result<DeviceReply, ExecError>)>;

struct Worker {
    tx: Option<Sender<CmdBatch>>,
    rx: Receiver<ReplyBatch>,
    handle: Option<JoinHandle<()>>,
    /// Rendered cause of a dead worker, filled by `failure_cause` the
    /// first time a channel to it disconnects.
    fault: Option<String>,
}

impl Worker {
    /// Joins a worker whose channel disconnected and renders what killed
    /// it (the panic payload, normally). Idempotent: the cause is cached
    /// so every affected batch reports the same failure.
    fn failure_cause(&mut self) -> String {
        if self.fault.is_none() {
            self.tx.take();
            let cause = match self.handle.take() {
                Some(handle) => match handle.join() {
                    Err(payload) => panic_message(payload),
                    Ok(()) => "worker exited without replying".to_string(),
                },
                None => "worker already joined".to_string(),
            };
            self.fault = Some(cause);
        }
        self.fault.clone().expect("cause cached above")
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the command channel ends the worker loop; the join
        // result is irrelevant on teardown (a panic already surfaced as
        // a typed error at the disconnect in run_batch).
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn spawn_worker(devices: Vec<usize>, source: DeviceSource) -> Worker {
    let (tx_cmd, rx_cmd) = channel::<CmdBatch>();
    let (tx_rep, rx_rep) = channel::<ReplyBatch>();
    let handle = std::thread::Builder::new()
        .name("array-worker".into())
        .spawn(move || {
            let mut owned: HashMap<usize, Ssd> =
                devices.into_iter().map(|d| (d, source.build(d))).collect();
            while let Ok(batch) = rx_cmd.recv() {
                let replies: ReplyBatch = batch
                    .into_iter()
                    .map(|(seq, dev, cmd)| {
                        worker_crash_hook(&cmd);
                        (seq, run_cmd(&mut owned, &source, dev, cmd))
                    })
                    .collect();
                if tx_rep.send(replies).is_err() {
                    break;
                }
            }
        })
        .expect("spawn array worker thread");
    Worker {
        tx: Some(tx_cmd),
        rx: rx_rep,
        handle: Some(handle),
        fault: None,
    }
}

/// The device executor: host-local devices plus zero or more worker
/// threads, each owning a fixed subset.
pub(crate) struct Engine {
    source: DeviceSource,
    local: HashMap<usize, Ssd>,
    workers: Vec<Worker>,
    /// `owner[d]` — `Some(w)` if device `d` lives on worker `w`, `None`
    /// if it lives on the calling thread.
    owner: Vec<Option<usize>>,
    _lease: Option<ThreadLease>,
    requested_workers: usize,
    effective_workers: usize,
}

impl Engine {
    pub(crate) fn new(devices: usize, source: DeviceSource, exec: ArrayExec) -> Engine {
        let (requested, lease) = match exec {
            ArrayExec::Serial => (1, None),
            ArrayExec::Threaded { workers } => {
                let want = workers.clamp(1, devices.max(1));
                (want, Some(claim_threads(want.saturating_sub(1))))
            }
        };
        let spawned = lease.as_ref().map_or(0, |l| l.claimed());
        let executors = spawned + 1;
        let mut owner = vec![None; devices];
        let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); spawned];
        for (d, slot) in owner.iter_mut().enumerate() {
            let ex = d % executors;
            if ex > 0 {
                *slot = Some(ex - 1);
                per_worker[ex - 1].push(d);
            }
        }
        let workers: Vec<Worker> = per_worker
            .into_iter()
            .map(|devs| spawn_worker(devs, source.clone()))
            .collect();
        let local: HashMap<usize, Ssd> = owner
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(d, _)| (d, source.build(d)))
            .collect();
        Engine {
            source,
            local,
            workers,
            owner,
            _lease: lease,
            requested_workers: requested,
            effective_workers: executors,
        }
    }

    /// Executors the caller asked for (calling thread included).
    pub(crate) fn requested_workers(&self) -> usize {
        self.requested_workers
    }

    /// Executors actually running after the budget lease (`1` means the
    /// engine degraded to serial).
    pub(crate) fn effective_workers(&self) -> usize {
        self.effective_workers
    }

    /// Runs one batch of commands and returns replies in input order.
    ///
    /// Commands addressed to the same device execute in input (`seq`)
    /// order on the one thread owning that device; commands to
    /// different devices run concurrently. The batch is a host-visible
    /// sync point: `run_batch` returns only when every command has
    /// finished.
    ///
    /// A panicking command never aborts the coordinator: panics inside a
    /// command are caught on the owning executor and surface as
    /// `ExecError::Worker` for that command; a worker thread dying
    /// outright (its channel disconnects) is joined, its panic payload
    /// captured, and every command routed to it this batch fails with
    /// that cause.
    pub(crate) fn run_batch(
        &mut self,
        cmds: Vec<(usize, DeviceCmd)>,
    ) -> Vec<Result<DeviceReply, ExecError>> {
        let n = cmds.len();
        let mut for_worker: Vec<CmdBatch> = (0..self.workers.len()).map(|_| Vec::new()).collect();
        let mut local_cmds: CmdBatch = Vec::new();
        for (seq, (dev, cmd)) in cmds.into_iter().enumerate() {
            assert!(dev < self.owner.len(), "device {dev} out of range");
            match self.owner[dev] {
                Some(w) => for_worker[w].push((seq as u64, dev, cmd)),
                None => local_cmds.push((seq as u64, dev, cmd)),
            }
        }
        let mut out: Vec<Option<Result<DeviceReply, ExecError>>> = (0..n).map(|_| None).collect();
        // Ship worker batches first so they execute while the calling
        // thread works through its own share. A send can only fail if
        // the worker already died; fail its commands with the captured
        // cause instead of propagating the second-hand panic.
        let mut active: Vec<(usize, Vec<u64>)> = Vec::new();
        for (w, batch) in for_worker.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let seqs: Vec<u64> = batch.iter().map(|(seq, _, _)| *seq).collect();
            let sent = match self.workers[w].tx.as_ref() {
                Some(tx) => tx.send(batch).is_ok(),
                None => false,
            };
            if sent {
                active.push((w, seqs));
            } else {
                let cause = self.workers[w].failure_cause();
                for seq in seqs {
                    out[seq as usize] = Some(Err(ExecError::Worker(cause.clone())));
                }
            }
        }
        for (seq, dev, cmd) in local_cmds {
            out[seq as usize] = Some(run_cmd(&mut self.local, &self.source, dev, cmd));
        }
        for (w, seqs) in active {
            match self.workers[w].rx.recv() {
                Ok(replies) => {
                    for (seq, rep) in replies {
                        out[seq as usize] = Some(rep);
                    }
                }
                Err(_) => {
                    let cause = self.workers[w].failure_cause();
                    for seq in seqs {
                        out[seq as usize] = Some(Err(ExecError::Worker(cause.clone())));
                    }
                }
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every command answered exactly once"))
            .collect()
    }
}

/// One host-bound completion awaiting its root-link crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Completion {
    /// When the transfer cleared its device (per-device clock time).
    pub ready: SimTime,
    /// Originating device.
    pub device: usize,
    /// Issue order within the batch (ties on `ready` and `device`).
    pub seq: u64,
    /// Bytes crossing the root.
    pub host_bytes: u64,
}

/// The deterministic event merge: total order on
/// `(completion_time, device_id, seq)`. This is the order the shared
/// root link is charged in, and it is a pure function of simulated
/// time — never of wall-clock scheduling.
pub(crate) fn merge_completions(mut events: Vec<Completion>) -> Vec<Completion> {
    events.sort_by_key(|e| (e.ready, e.device, e.seq));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_core::EngineKind;
    use assasin_parallel::with_max_threads;

    fn source(devices: usize) -> DeviceSource {
        DeviceSource {
            cfgs: Arc::new(vec![
                SsdConfig::small_for_tests(EngineKind::AssasinSb);
                devices
            ]),
            image: None,
        }
    }

    fn store_cmd() -> DeviceCmd {
        DeviceCmd::Store {
            first_lpa: 0,
            data: vec![42u8; 4096].into(),
        }
    }

    fn expect_worker_err(reply: &Result<DeviceReply, ExecError>, needle: &str) {
        match reply {
            Err(ExecError::Worker(cause)) => {
                assert!(cause.contains(needle), "cause {cause:?} lacks {needle:?}")
            }
            Err(ExecError::Device(e)) => panic!("expected worker failure, got device error {e}"),
            Ok(_) => panic!("expected worker failure, got success"),
        }
    }

    // Regression: a panicking command used to kill the coordinator via
    // `.expect("array worker alive")` / the recv `.expect(...)`. Both
    // executor shapes must survive with a typed error carrying the
    // payload, keep sibling devices usable, and allow `Replace` to bring
    // the poisoned slot back.
    #[test]
    fn caught_panic_poisons_device_but_engine_survives() {
        let mut engine = Engine::new(2, source(2), ArrayExec::Serial);
        let replies = engine.run_batch(vec![
            (0, DeviceCmd::Panic { caught: true }),
            (1, store_cmd()),
        ]);
        expect_worker_err(&replies[0], "injected device panic");
        assert!(matches!(replies[1], Ok(DeviceReply::Store { .. })));
        // The poisoned device stays offline with a typed error...
        let replies = engine.run_batch(vec![(0, store_cmd())]);
        expect_worker_err(&replies[0], "offline after an earlier panic");
        // ...until a replacement drive brings the slot back.
        let replies = engine.run_batch(vec![(0, DeviceCmd::Replace), (0, store_cmd())]);
        assert!(matches!(replies[0], Ok(DeviceReply::Replaced)));
        assert!(matches!(replies[1], Ok(DeviceReply::Store { .. })));
    }

    #[test]
    fn dead_worker_thread_is_joined_and_reported_not_repanicked() {
        with_max_threads(4, || {
            let mut engine = Engine::new(2, source(2), ArrayExec::Threaded { workers: 2 });
            if engine.effective_workers() < 2 {
                // Thread budget exhausted on this box; the serial-shape
                // test above covers the catch path.
                return;
            }
            // Device 1 lives on the worker; a panic outside the
            // per-command catch kills the whole thread.
            let replies = engine.run_batch(vec![
                (1, DeviceCmd::Panic { caught: false }),
                (0, store_cmd()),
            ]);
            expect_worker_err(&replies[0], "injected worker crash");
            assert!(matches!(replies[1], Ok(DeviceReply::Store { .. })));
            // Later batches to the dead worker fail with the same cached
            // cause (send-side disconnect), and the local device still
            // works.
            let replies = engine.run_batch(vec![(1, store_cmd()), (0, DeviceCmd::Replace)]);
            expect_worker_err(&replies[0], "injected worker crash");
            assert!(matches!(replies[1], Ok(DeviceReply::Replaced)));
        });
    }

    #[test]
    fn merge_orders_by_time_then_device_then_seq() {
        let ev = |ps: u64, device: usize, seq: u64| Completion {
            ready: SimTime::from_ps(ps),
            device,
            seq,
            host_bytes: 0,
        };
        let merged = merge_completions(vec![
            ev(50, 2, 9),
            ev(10, 1, 4),
            ev(50, 0, 7),
            ev(50, 0, 3),
            ev(10, 1, 2),
        ]);
        let key: Vec<(u64, usize, u64)> = merged
            .iter()
            .map(|e| (e.ready.as_ps(), e.device, e.seq))
            .collect();
        assert_eq!(
            key,
            vec![(10, 1, 2), (10, 1, 4), (50, 0, 3), (50, 0, 7), (50, 2, 9)]
        );
    }
}
