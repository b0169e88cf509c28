//! The cache-DRAM hierarchy used by Baseline/Prefetch cores (Figure 4).

use crate::{Cache, CacheGeometry, DcptPrefetcher, Dram, SharedDram};
use assasin_sim::{SimDur, SimTime};
use std::collections::HashMap;

/// Which level served a demand access — drives the Figure 5 cycle
/// decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// L1 hit.
    L1,
    /// Served by the L2.
    L2,
    /// Went to SSD DRAM.
    Dram,
    /// Covered by an in-flight prefetch.
    Prefetch,
}

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand load — stalls the in-order pipeline until data returns.
    Load,
    /// A store — retires through the store buffer without stalling (the
    /// line fill and writeback still consume DRAM bandwidth).
    Store,
}

/// Configuration of the per-core cache hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// L1 data cache geometry, if present.
    pub l1: Option<CacheGeometry>,
    /// L2 cache geometry, if present.
    pub l2: Option<CacheGeometry>,
    /// Whether the DCPT prefetcher is attached (the `Prefetch` variant).
    pub prefetch: bool,
    /// L1 hit service time (typically one pipeline cycle).
    pub l1_hit: SimDur,
    /// L2 hit service time.
    pub l2_hit: SimDur,
    /// DRAM-bus bytes charged per demand-fill byte. The Baseline SSD data
    /// path stages flash pages into DRAM and reads them back, so every
    /// fill byte costs two bus trips (Section III's blue arrows).
    pub fill_bytes_factor: u32,
    /// Fraction of the DRAM access latency exposed to a blocking load.
    /// Models the memory-level parallelism a pipelined in-order core still
    /// extracts (critical-word-first, fill/use overlap).
    pub mlp_latency_factor: f64,
}

impl HierarchyConfig {
    /// Table IV `Baseline`: 32 KiB/8-way L1D + 256 KiB/16-way L2, no
    /// prefetcher.
    pub fn baseline() -> Self {
        HierarchyConfig {
            l1: Some(CacheGeometry::L1D),
            l2: Some(CacheGeometry::L2),
            prefetch: false,
            // Load-use latency of an in-order five-stage core: the dcache
            // answers in MEM, so a dependent consumer sees two cycles.
            // (ASSASIN's scratchpad/streambuffer single-cycle access is
            // exactly the contrast Section V-B draws.)
            l1_hit: SimDur::from_ns(2),
            l2_hit: SimDur::from_ns(8),
            fill_bytes_factor: 2,
            mlp_latency_factor: 0.6,
        }
    }

    /// Table IV `Prefetch`: baseline plus DCPT.
    pub fn with_prefetcher() -> Self {
        HierarchyConfig {
            prefetch: true,
            ..HierarchyConfig::baseline()
        }
    }
}

/// One step of a demand access, in the order the model takes it: what the
/// functional half ([`MemHierarchy::touch`]: lookups, fills, evictions)
/// leaves for the timing half ([`MemHierarchy::price`]: bus grants and the
/// completion time) to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A dirty victim written back: one line posted at the access's ready
    /// time, which the access does not wait for.
    Writeback,
    /// The next line of the access hit in L1.
    L1,
    /// The next line missed L1 and hit in L2.
    L2,
    /// The next line was covered by a prefetch whose data is ready at the
    /// given time.
    Prefetched(SimTime),
    /// The next line was filled from DRAM.
    Fill,
    /// The prefetcher issued a fill of this line after the demand lines.
    Prefetch(u64),
}

/// Where the timing half sends its bus transfers.
trait Bus {
    /// Posts `bytes`, ready at `ready`; returns when the bus finishes them.
    fn post(&mut self, ready: SimTime, bytes: u64) -> SimTime;
}

impl Bus for Dram {
    fn post(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        Dram::post(self, ready, bytes)
    }
}

/// The shared bus as if nobody else used it: every transfer starts when it
/// is ready. The real bus never grants earlier, so a completion priced here
/// is a lower bound on the real one.
struct FreeBus {
    /// `(bytes, service time)` of a fill; every other transfer is a
    /// writeback, whose completion nobody reads.
    fill: (u64, SimDur),
}

impl Bus for FreeBus {
    fn post(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        if bytes == self.fill.0 {
            ready + self.fill.1
        } else {
            ready
        }
    }
}

/// What the timing half needs of the configuration, precomputed.
#[derive(Debug, Clone, Copy)]
struct Pricing {
    l1_hit: SimDur,
    l2_hit: SimDur,
    line_bytes: u64,
    /// Bus bytes of one fill: the Baseline data path pays
    /// `fill_bytes_factor` bus trips per byte (staging write + demand
    /// read).
    fill_bytes: u64,
    /// `dram.latency() * mlp_latency_factor` — the DRAM latency is fixed
    /// at construction, so the float round-trip is paid once here instead
    /// of on every fill.
    exposed_dram_latency: SimDur,
    /// Bus service time of one fill, for [`MemHierarchy::price_free`].
    fill_service: SimDur,
}

impl Pricing {
    /// The completion rule shared by both buses. Lines complete at their
    /// level's hit time, at their prefetch's data-ready time, or a fill's
    /// bus grant plus the exposed DRAM latency (stores retire through the
    /// store buffer: traffic yes, stall no). The access completes at its
    /// latest line and is attributed to it (to the first line on a tie).
    fn complete<B: Bus>(
        self,
        kind: AccessKind,
        steps: &[Step],
        ready: SimTime,
        bus: &mut B,
        mut prefetched: impl FnMut(u64, SimTime),
    ) -> (SimTime, ServedBy) {
        let store = matches!(kind, AccessKind::Store);
        let l1_hit_time = ready + self.l1_hit;
        let mut complete = ready;
        let mut served = ServedBy::L1;
        let mut first = true;
        for &step in steps {
            let (t, s) = match step {
                Step::Writeback => {
                    bus.post(ready, self.line_bytes);
                    continue;
                }
                Step::Prefetch(line) => {
                    let bus_done = bus.post(ready, self.fill_bytes);
                    prefetched(line, bus_done + self.exposed_dram_latency);
                    continue;
                }
                Step::L1 => (l1_hit_time, ServedBy::L1),
                Step::L2 => (ready + self.l2_hit, ServedBy::L2),
                Step::Prefetched(_) if store => (l1_hit_time, ServedBy::Prefetch),
                Step::Prefetched(pf_ready) => (l1_hit_time.max(pf_ready), ServedBy::Prefetch),
                Step::Fill => {
                    let bus_done = bus.post(ready, self.fill_bytes);
                    let t = if store {
                        l1_hit_time
                    } else {
                        bus_done + self.exposed_dram_latency
                    };
                    (t, ServedBy::Dram)
                }
            };
            if t > complete {
                complete = t;
                served = s;
            } else if first {
                served = s;
            }
            first = false;
        }
        (complete, served)
    }
}

/// A per-core cache hierarchy in front of the shared SSD DRAM.
///
/// Timing model: L1 hits cost [`HierarchyConfig::l1_hit`]; L1 misses that
/// hit in L2 cost `l2_hit`; L2 misses occupy the shared DRAM bus for a line
/// and pay the DRAM latency. Dirty evictions post write-back traffic to
/// DRAM without stalling the core. Prefetches issued by DCPT consume real
/// DRAM bandwidth and can later convert demand misses into
/// [`ServedBy::Prefetch`] hits.
///
/// An access has a functional half, [`MemHierarchy::touch`], which does
/// not depend on time, and a timing half, [`MemHierarchy::price`], which
/// books the bus. [`MemHierarchy::access`] runs them back to back.
#[derive(Debug)]
pub struct MemHierarchy {
    cfg: HierarchyConfig,
    l1: Option<Cache>,
    l2: Option<Cache>,
    prefetcher: Option<DcptPrefetcher>,
    dram: SharedDram,
    /// In-flight (or completed-but-unclaimed) prefetches: line addr -> data
    /// ready time. A prefetch's key is inserted by the functional half and
    /// its time by the timing half.
    inflight_pf: HashMap<u64, SimTime>,
    line_bytes: u32,
    /// Demand traffic brought in from DRAM, in bytes.
    dram_fill_bytes: u64,
    pricing: Pricing,
    /// The steps of the last [`MemHierarchy::touch`].
    steps: Vec<Step>,
}

impl MemHierarchy {
    /// Largest number of outstanding prefetched lines tracked.
    const MAX_INFLIGHT_PF: usize = 32;

    /// Builds the hierarchy over the shared DRAM.
    pub fn new(cfg: HierarchyConfig, dram: SharedDram) -> Self {
        let line_bytes = cfg.l1.or(cfg.l2).map(|g| g.line_bytes).unwrap_or(64);
        let fill_bytes = line_bytes as u64 * cfg.fill_bytes_factor as u64;
        let pricing = {
            let d = dram.lock();
            Pricing {
                l1_hit: cfg.l1_hit,
                l2_hit: cfg.l2_hit,
                line_bytes: line_bytes as u64,
                fill_bytes,
                exposed_dram_latency: SimDur::from_secs_f64(
                    d.latency().as_secs_f64() * cfg.mlp_latency_factor,
                ),
                fill_service: d.service_time(fill_bytes),
            }
        };
        MemHierarchy {
            l1: cfg.l1.map(Cache::new),
            l2: cfg.l2.map(Cache::new),
            prefetcher: if cfg.prefetch {
                Some(DcptPrefetcher::new(line_bytes))
            } else {
                None
            },
            cfg,
            dram,
            inflight_pf: HashMap::new(),
            line_bytes,
            dram_fill_bytes: 0,
            pricing,
            steps: Vec::new(),
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Performs a demand access of `bytes` at `addr` issued by the
    /// instruction at `pc`, ready at `ready`. Returns the completion time
    /// and the level that served it.
    ///
    /// Accesses are line-granular: an access spanning two lines touches
    /// both and completes at the later one.
    #[inline]
    pub fn access(
        &mut self,
        kind: AccessKind,
        pc: u64,
        addr: u64,
        bytes: u32,
        ready: SimTime,
    ) -> (SimTime, ServedBy) {
        if self.touch(kind, pc, addr, bytes) {
            return (ready + self.cfg.l1_hit, ServedBy::L1);
        }
        self.settle(kind, ready)
    }

    /// The functional half of [`MemHierarchy::access`]: cache lookups,
    /// fills and evictions, the prefetcher's training and the keys of the
    /// prefetches it issues. Nothing here depends on time. Returns true for
    /// a single-line L1 hit that trained no prefetcher, which completes
    /// [`HierarchyConfig::l1_hit`] after it is ready and uses no bus;
    /// otherwise [`MemHierarchy::steps`] holds what the timing half needs.
    #[inline]
    pub fn touch(&mut self, kind: AccessKind, pc: u64, addr: u64, bytes: u32) -> bool {
        let mask = !(self.line_bytes as u64 - 1);
        let first_line = addr & mask;
        let last_line = (addr + bytes.max(1) as u64 - 1) & mask;
        let store = matches!(kind, AccessKind::Store);
        // Fast path: a single-line access that hits L1 changes nothing
        // besides the line's LRU stamp/dirty bit and the hit counter —
        // skip the per-line loop and prefetch-table lookups. `try_hit`
        // mutates nothing on miss, so falling through to the general path
        // below replays the identical state machine.
        if first_line == last_line {
            if let Some(l1) = &mut self.l1 {
                if l1.try_hit(first_line, store) {
                    if self.prefetcher.is_none() {
                        return true;
                    }
                    self.steps.clear();
                    self.steps.push(Step::L1);
                    self.train_prefetcher(pc, addr);
                    return false;
                }
            }
        }
        self.touch_lines(store, first_line, last_line, pc, addr);
        false
    }

    /// The general path of [`MemHierarchy::touch`].
    fn touch_lines(&mut self, store: bool, first_line: u64, last_line: u64, pc: u64, addr: u64) {
        self.steps.clear();
        let mut line = first_line;
        loop {
            self.touch_line(store, line);
            if line == last_line {
                break;
            }
            line += self.line_bytes as u64;
        }
        // Prefetcher observes the demand stream (trains on all accesses).
        self.train_prefetcher(pc, addr);
    }

    /// The steps of the last [`MemHierarchy::touch`] that returned false.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    fn touch_line(&mut self, store: bool, line: u64) {
        // L1 lookup.
        if let Some(l1) = &mut self.l1 {
            let r = l1.access(line, store);
            if r.writeback.is_some() {
                self.steps.push(Step::Writeback);
            }
            if r.hit {
                self.steps.push(Step::L1);
                return;
            }
        }
        // Prefetch coverage.
        if let Some(pf_ready) = self.inflight_pf.remove(&line) {
            if let Some(l2) = &mut self.l2 {
                if l2.fill(line).is_some() {
                    self.steps.push(Step::Writeback);
                }
            }
            if let Some(pf) = &mut self.prefetcher {
                pf.note_useful();
            }
            self.steps.push(Step::Prefetched(pf_ready));
            return;
        }
        // L2 lookup.
        if let Some(l2) = &mut self.l2 {
            let r = l2.access(line, false);
            if r.writeback.is_some() {
                self.steps.push(Step::Writeback);
            }
            if r.hit {
                self.steps.push(Step::L2);
                return;
            }
        }
        self.dram_fill_bytes += self.pricing.fill_bytes;
        self.steps.push(Step::Fill);
    }

    fn train_prefetcher(&mut self, pc: u64, addr: u64) {
        let Some(pf) = &mut self.prefetcher else {
            return;
        };
        let candidates = pf.observe(pc, addr);
        for cand in candidates {
            let line = cand & !(self.line_bytes as u64 - 1);
            let cached = self.l1.as_ref().map(|c| c.probe(line)).unwrap_or(false)
                || self.l2.as_ref().map(|c| c.probe(line)).unwrap_or(false);
            if cached || self.inflight_pf.contains_key(&line) {
                continue;
            }
            if self.inflight_pf.len() >= Self::MAX_INFLIGHT_PF {
                break;
            }
            self.dram_fill_bytes += self.pricing.fill_bytes;
            // The data-ready time is the timing half's to set.
            self.inflight_pf.insert(line, SimTime::ZERO);
            self.steps.push(Step::Prefetch(line));
        }
    }

    /// The timing half of [`MemHierarchy::access`]: books `steps` (from
    /// [`MemHierarchy::touch`], now or earlier) on the shared DRAM bus for
    /// an access ready at `ready`, and returns its completion time and the
    /// level that served it.
    pub fn price(
        &mut self,
        kind: AccessKind,
        steps: &[Step],
        ready: SimTime,
    ) -> (SimTime, ServedBy) {
        let inflight = &mut self.inflight_pf;
        let mut bus = self.dram.lock();
        self.pricing
            .complete(kind, steps, ready, &mut *bus, |line, at| {
                inflight.insert(line, at);
            })
    }

    /// [`MemHierarchy::price`] of the last touch's own steps.
    pub fn settle(&mut self, kind: AccessKind, ready: SimTime) -> (SimTime, ServedBy) {
        let steps = std::mem::take(&mut self.steps);
        let priced = self.price(kind, &steps, ready);
        self.steps = steps;
        priced
    }

    /// [`MemHierarchy::price`] against a bus nobody else uses, booking
    /// nothing: a lower bound on the completion the shared bus would give
    /// at the same `ready` time, whatever else it carries. Prefetch steps
    /// are not priced.
    pub fn price_free(
        &self,
        kind: AccessKind,
        steps: &[Step],
        ready: SimTime,
    ) -> (SimTime, ServedBy) {
        let p = self.pricing;
        let mut bus = FreeBus {
            fill: (p.fill_bytes, p.fill_service),
        };
        p.complete(kind, steps, ready, &mut bus, |_, _| {})
    }

    /// Demand-fill traffic brought from DRAM so far, in bytes.
    pub fn dram_fill_bytes(&self) -> u64 {
        self.dram_fill_bytes
    }

    /// L1 (hits, misses), if an L1 is configured.
    pub fn l1_counters(&self) -> Option<(u64, u64)> {
        self.l1.as_ref().map(|c| c.counters())
    }

    /// L2 (hits, misses), if an L2 is configured.
    pub fn l2_counters(&self) -> Option<(u64, u64)> {
        self.l2.as_ref().map(|c| c.counters())
    }

    /// Prefetcher (issued, useful) counters, if configured.
    pub fn prefetch_counters(&self) -> Option<(u64, u64)> {
        self.prefetcher.as_ref().map(|p| p.counters())
    }

    /// Serializes caches, prefetcher and in-flight prefetches. The config
    /// and the shared DRAM handle are supplied again at restore; the
    /// in-flight map is written sorted by line address so identical states
    /// produce identical bytes.
    pub fn save_state(&self, enc: &mut assasin_snap::Encoder) {
        for cache in [&self.l1, &self.l2] {
            match cache {
                Some(c) => {
                    enc.bool(true);
                    c.save_state(enc);
                }
                None => enc.bool(false),
            }
        }
        match &self.prefetcher {
            Some(p) => {
                enc.bool(true);
                p.save_state(enc);
            }
            None => enc.bool(false),
        }
        let mut pf: Vec<(u64, SimTime)> = self.inflight_pf.iter().map(|(&k, &v)| (k, v)).collect();
        pf.sort_unstable_by_key(|&(k, _)| k);
        enc.len_of(pf.len());
        for (line, ready) in pf {
            enc.u64(line);
            enc.u64(ready.as_ps());
        }
        enc.u64(self.dram_fill_bytes);
    }

    /// Rebuilds a hierarchy from [`MemHierarchy::save_state`] bytes over
    /// the supplied config and shared DRAM.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a cache/prefetcher presence mismatch with
    /// `cfg` (the snapshot was taken under a different hierarchy shape).
    pub fn restore_state(
        cfg: HierarchyConfig,
        dram: SharedDram,
        dec: &mut assasin_snap::Decoder<'_>,
    ) -> Result<Self, assasin_snap::SnapError> {
        let mut h = MemHierarchy::new(cfg, dram);
        for (slot, want) in [(&mut h.l1, cfg.l1.is_some()), (&mut h.l2, cfg.l2.is_some())] {
            let present = dec.bool()?;
            if present != want {
                return Err(assasin_snap::SnapError::Malformed(
                    "hierarchy cache presence mismatch".into(),
                ));
            }
            if present {
                *slot = Some(Cache::restore_state(dec)?);
            }
        }
        let pf_present = dec.bool()?;
        if pf_present != cfg.prefetch {
            return Err(assasin_snap::SnapError::Malformed(
                "hierarchy prefetcher presence mismatch".into(),
            ));
        }
        if pf_present {
            h.prefetcher = Some(DcptPrefetcher::restore_state(dec)?);
        }
        let n = dec.len_of()?;
        h.inflight_pf = HashMap::with_capacity(n);
        for _ in 0..n {
            let line = dec.u64()?;
            let ready = SimTime::from_ps(dec.u64()?);
            h.inflight_pf.insert(line, ready);
        }
        h.dram_fill_bytes = dec.u64()?;
        Ok(h)
    }

    /// In-place variant of [`MemHierarchy::restore_state`] for containers
    /// that already hold a constructed hierarchy with the right config and
    /// DRAM handle (the decoded state replaces the current one).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MemHierarchy::restore_state`].
    pub fn load_snapshot(
        &mut self,
        dec: &mut assasin_snap::Decoder<'_>,
    ) -> Result<(), assasin_snap::SnapError> {
        *self = Self::restore_state(self.cfg, self.dram.clone(), dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dram;

    fn dram() -> SharedDram {
        Dram::lpddr5_8gbps().into_shared()
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut h = MemHierarchy::new(HierarchyConfig::baseline(), dram());
        let (t0, s0) = h.access(AccessKind::Load, 0, 0x1000, 4, SimTime::ZERO);
        assert_eq!(s0, ServedBy::Dram);
        let (t1, s1) = h.access(AccessKind::Load, 0, 0x1004, 4, t0);
        assert_eq!(s1, ServedBy::L1);
        assert_eq!(t1, t0 + HierarchyConfig::baseline().l1_hit);
    }

    #[test]
    fn l2_serves_l1_victims() {
        let mut h = MemHierarchy::new(HierarchyConfig::baseline(), dram());
        // Touch enough distinct lines to overflow L1 (32KiB = 512 lines)
        // but stay within L2 (4096 lines).
        for i in 0..1024u64 {
            h.access(AccessKind::Load, 0, i * 64, 4, SimTime::from_us(100));
        }
        // Re-touch the first line: out of L1, still in L2.
        let (_, s) = h.access(AccessKind::Load, 0, 0, 4, SimTime::from_ms(1));
        assert_eq!(s, ServedBy::L2);
    }

    #[test]
    fn streaming_pays_dram_every_line() {
        let mut h = MemHierarchy::new(HierarchyConfig::baseline(), dram());
        let mut dram_served = 0;
        let mut t = SimTime::ZERO;
        for i in 0..256u64 {
            let (done, s) = h.access(AccessKind::Load, 0, 0x10_0000 + i * 64, 4, t);
            t = done;
            if s == ServedBy::Dram {
                dram_served += 1;
            }
        }
        assert_eq!(dram_served, 256, "streaming has no reuse");
        // 2x per fill byte: staging write + demand read (Section III).
        assert_eq!(h.dram_fill_bytes(), 2 * 256 * 64);
    }

    #[test]
    fn prefetcher_converts_misses() {
        let mut hp = MemHierarchy::new(HierarchyConfig::with_prefetcher(), dram());
        let mut t = SimTime::ZERO;
        let mut covered = 0;
        for i in 0..512u64 {
            let (done, s) = hp.access(AccessKind::Load, 0x40, 0x20_0000 + i * 64, 4, t);
            t = done;
            if s == ServedBy::Prefetch {
                covered += 1;
            }
        }
        assert!(
            covered > 100,
            "DCPT must cover a sequential stream, got {covered}"
        );
        let (issued, useful) = hp.prefetch_counters().unwrap();
        assert!(issued >= useful);
        assert!(useful > 0);
    }

    #[test]
    fn stores_do_not_stall() {
        let mut h = MemHierarchy::new(HierarchyConfig::baseline(), dram());
        let (t, s) = h.access(AccessKind::Store, 0, 0x5000, 4, SimTime::ZERO);
        assert_eq!(s, ServedBy::Dram);
        assert_eq!(t, SimTime::ZERO + HierarchyConfig::baseline().l1_hit);
        // ... but they do produce DRAM traffic (2x per fill byte).
        assert_eq!(h.dram_fill_bytes(), 128);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = MemHierarchy::new(HierarchyConfig::baseline(), dram());
        h.access(AccessKind::Load, 0, 0x103C, 8, SimTime::ZERO);
        let (hits, misses) = h.l1_counters().unwrap();
        assert_eq!((hits, misses), (0, 2));
    }
}
