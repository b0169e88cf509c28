//! Property tests pinning [`MemHierarchy`]'s split into a functional half
//! (`touch`) and a timing half (`price`) to the single-pass `access` it
//! replaced, and the free-bus price to a lower bound of the real one.
//!
//! The reference model below is the pre-split `access` verbatim (modulo
//! naming), over its own caches, prefetcher and DRAM. On any trace — loads
//! and stores of 1–8 bytes, straddling lines, with and without the DCPT
//! prefetcher, on caches small enough to evict dirty lines, with other
//! traffic contending for the bus — both must give the same completion
//! and serving level for every access, the same counters, and a DRAM bus
//! in the same state.

use assasin_mem::{
    AccessKind, Cache, CacheGeometry, DcptPrefetcher, Dram, HierarchyConfig, MemHierarchy,
    ServedBy, SharedDram,
};
use assasin_sim::{SimDur, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// The pre-split hierarchy: lookups, fills, evictions and bus grants
/// interleaved in one pass.
struct RefHierarchy {
    cfg: HierarchyConfig,
    l1: Option<Cache>,
    l2: Option<Cache>,
    prefetcher: Option<DcptPrefetcher>,
    dram: SharedDram,
    inflight_pf: HashMap<u64, SimTime>,
    line_bytes: u32,
    dram_fill_bytes: u64,
    exposed_dram_latency: SimDur,
}

impl RefHierarchy {
    const MAX_INFLIGHT_PF: usize = 32;

    fn new(cfg: HierarchyConfig, dram: SharedDram) -> Self {
        let line_bytes = cfg.l1.or(cfg.l2).map(|g| g.line_bytes).unwrap_or(64);
        let exposed_dram_latency =
            SimDur::from_secs_f64(dram.lock().latency().as_secs_f64() * cfg.mlp_latency_factor);
        RefHierarchy {
            l1: cfg.l1.map(Cache::new),
            l2: cfg.l2.map(Cache::new),
            prefetcher: cfg.prefetch.then(|| DcptPrefetcher::new(line_bytes)),
            cfg,
            dram,
            inflight_pf: HashMap::new(),
            line_bytes,
            dram_fill_bytes: 0,
            exposed_dram_latency,
        }
    }

    fn access(
        &mut self,
        kind: AccessKind,
        pc: u64,
        addr: u64,
        bytes: u32,
        ready: SimTime,
    ) -> (SimTime, ServedBy) {
        let first_line = addr & !(self.line_bytes as u64 - 1);
        let last_line = (addr + bytes.max(1) as u64 - 1) & !(self.line_bytes as u64 - 1);
        if first_line == last_line {
            if let Some(l1) = &mut self.l1 {
                if l1.try_hit(first_line, matches!(kind, AccessKind::Store)) {
                    if self.prefetcher.is_some() {
                        self.train_prefetcher(pc, addr, ready);
                    }
                    return (ready + self.cfg.l1_hit, ServedBy::L1);
                }
            }
        }
        let mut complete = ready;
        let mut served = ServedBy::L1;
        let mut line = first_line;
        loop {
            let (t, s) = self.access_line(kind, line, ready);
            if t > complete {
                complete = t;
                served = s;
            } else if line == first_line {
                served = s;
            }
            if line == last_line {
                break;
            }
            line += self.line_bytes as u64;
        }
        if self.prefetcher.is_some() {
            self.train_prefetcher(pc, addr, ready);
        }
        (complete, served)
    }

    fn access_line(&mut self, kind: AccessKind, line: u64, ready: SimTime) -> (SimTime, ServedBy) {
        let l1_hit_time = ready + self.cfg.l1_hit;
        if let Some(l1) = &mut self.l1 {
            let r = l1.access(line, matches!(kind, AccessKind::Store));
            if r.writeback.is_some() {
                self.writeback(ready);
            }
            if r.hit {
                return (l1_hit_time, ServedBy::L1);
            }
        }
        if let Some(pf_ready) = self.inflight_pf.remove(&line) {
            if let Some(l2) = &mut self.l2 {
                if l2.fill(line).is_some() {
                    self.writeback(ready);
                }
            }
            if let Some(pf) = &mut self.prefetcher {
                pf.note_useful();
            }
            let done = l1_hit_time.max(pf_ready);
            let store = matches!(kind, AccessKind::Store);
            return (if store { l1_hit_time } else { done }, ServedBy::Prefetch);
        }
        if let Some(l2) = &mut self.l2 {
            let r = l2.access(line, false);
            if r.writeback.is_some() {
                self.writeback(ready);
            }
            if r.hit {
                return (ready + self.cfg.l2_hit, ServedBy::L2);
            }
        }
        let fill = self.line_bytes as u64 * self.cfg.fill_bytes_factor as u64;
        self.dram_fill_bytes += fill;
        let done = match kind {
            AccessKind::Load => self.dram.lock().post(ready, fill) + self.exposed_dram_latency,
            AccessKind::Store => {
                self.dram.lock().post(ready, fill);
                ready + self.cfg.l1_hit
            }
        };
        (done, ServedBy::Dram)
    }

    fn train_prefetcher(&mut self, pc: u64, addr: u64, now: SimTime) {
        let Some(pf) = &mut self.prefetcher else {
            return;
        };
        for cand in pf.observe(pc, addr) {
            let line = cand & !(self.line_bytes as u64 - 1);
            let cached = self.l1.as_ref().map(|c| c.probe(line)).unwrap_or(false)
                || self.l2.as_ref().map(|c| c.probe(line)).unwrap_or(false);
            if cached || self.inflight_pf.contains_key(&line) {
                continue;
            }
            if self.inflight_pf.len() >= Self::MAX_INFLIGHT_PF {
                break;
            }
            let fill = self.line_bytes as u64 * self.cfg.fill_bytes_factor as u64;
            self.dram_fill_bytes += fill;
            let ready = self.dram.lock().post(now, fill) + self.exposed_dram_latency;
            self.inflight_pf.insert(line, ready);
        }
    }

    fn writeback(&mut self, ready: SimTime) {
        self.dram.lock().post(ready, self.line_bytes as u64);
    }
}

/// Baseline or Prefetch timing over caches small enough that random
/// traces evict dirty lines from both levels.
fn config(prefetch: bool) -> HierarchyConfig {
    HierarchyConfig {
        l1: Some(CacheGeometry {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        }),
        l2: Some(CacheGeometry {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
        }),
        prefetch,
        ..HierarchyConfig::baseline()
    }
}

fn dram_bytes(dram: &SharedDram) -> Vec<u8> {
    let mut enc = assasin_snap::Encoder::new();
    dram.lock().save_state(&mut enc);
    enc.into_bytes()
}

/// One trace entry: `(op, pc, address, width, time step)`. Ops 0–1 are a
/// load or store; op 2 is another requester's transfer on the bus.
fn trace() -> impl Strategy<Value = Vec<(u8, u64, u64, u32, u64)>> {
    vec(
        (0u8..3, 0u64..4, 0u64..1 << 14, 1u32..=8, 0u64..200),
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn split_access_matches_single_pass_access(prefetch in any::<bool>(), ops in trace()) {
        let cfg = config(prefetch);
        let split_dram = Dram::lpddr5_8gbps().into_shared();
        let ref_dram = Dram::lpddr5_8gbps().into_shared();
        let mut split = MemHierarchy::new(cfg, split_dram.clone());
        let mut reference = RefHierarchy::new(cfg, ref_dram.clone());
        let mut now = SimTime::ZERO;
        for (i, &(op, pc, addr, bytes, step)) in ops.iter().enumerate() {
            now += SimDur::from_ns(step);
            // Straddling and same-line accesses interleave with accesses
            // from a few PCs, which is what trains DCPT.
            let kind = match op {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                _ => {
                    split_dram.lock().post(now, 64 * bytes as u64);
                    ref_dram.lock().post(now, 64 * bytes as u64);
                    continue;
                }
            };
            let got = split.access(kind, pc * 4, addr, bytes, now);
            let want = reference.access(kind, pc * 4, addr, bytes, now);
            prop_assert_eq!(got, want, "access {} diverged", i);
        }
        prop_assert_eq!(split.dram_fill_bytes(), reference.dram_fill_bytes);
        prop_assert_eq!(split.l1_counters(), reference.l1.as_ref().map(|c| c.counters()));
        prop_assert_eq!(split.l2_counters(), reference.l2.as_ref().map(|c| c.counters()));
        prop_assert_eq!(
            split.prefetch_counters(),
            reference.prefetcher.as_ref().map(|p| p.counters())
        );
        prop_assert!(dram_bytes(&split_dram) == dram_bytes(&ref_dram), "DRAM bus state diverged");
    }

    #[test]
    fn free_bus_never_completes_later_than_the_shared_bus(ops in trace()) {
        let dram = Dram::lpddr5_8gbps().into_shared();
        let mut h = MemHierarchy::new(config(false), dram.clone());
        let mut now = SimTime::ZERO;
        for &(op, pc, addr, bytes, step) in &ops {
            now += SimDur::from_ns(step);
            let kind = match op {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                _ => {
                    // Contention: the shared bus is busy well past `now`.
                    dram.lock().post(now, 4096 * bytes as u64);
                    continue;
                }
            };
            if h.touch(kind, pc * 4, addr, bytes) {
                continue;
            }
            let (free, _) = h.price_free(kind, h.steps(), now);
            let (real, _) = h.settle(kind, now);
            prop_assert!(free <= real, "free bus {} later than shared bus {}", free, real);
        }
    }
}
