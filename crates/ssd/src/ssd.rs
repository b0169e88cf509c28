//! The SSD: plain IO paths plus the `scomp` compute path.

use crate::backend::{
    schedule_plans, split_ranges, Backend, CoreFeed, FlashOut, PagePlan, SharedPlane, Sink,
    StreamPlan,
};
use crate::counters::{record_cosim, record_lanes};
use crate::request::OutputTarget;
use crate::round::{run_rounds, Stop};
use crate::{CoreReport, ScompRequest, ScompResult, SsdConfig, SsdError};
use assasin_core::{
    run_lanes, AnyExec, Core, CoreConfig, CoreState, DramWindow, EngineKind, KernelProfile,
    LaneGroup, StreamEnv, SyntheticEnv, UdpLane,
};
use assasin_flash::FlashArray;
use assasin_ftl::{placement::Placement, Ftl, Lpa};
use assasin_isa::{Instr, Program, Reg};
use assasin_kernels::AccessStyle;
use assasin_mem::{Dram, SharedDram};
use assasin_sim::{Bandwidth, SimDur, SimTime, Timeline};
use assasin_snap::{Decoder, Encoder, SnapError};
use bytes::Bytes;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Snapshot container magic (`ASNP` little-endian).
const SNAP_MAGIC: u32 = u32::from_le_bytes(*b"ASNP");
/// Container format version; bumped on any layer encoding change.
const SNAP_VERSION: u16 = 1;

const TAG_FLASH: u8 = 0xF1;
const TAG_FTL: u8 = 0xF2;
const TAG_DRAM: u8 = 0xF3;
const TAG_PCIE: u8 = 0xF4;
const TAG_XBAR: u8 = 0xF5;

/// The media-identity fingerprint: the config facets that determine what
/// the flash array and FTL contain after a load. Two configs with equal
/// fingerprints produce byte-identical device contents from the same
/// writes, whatever their engine/core/link settings.
fn media_fingerprint(cfg: &SsdConfig) -> String {
    format!("{:?}|{:?}|{:?}", cfg.geometry, cfg.timing, cfg.fault)
}

/// Result of a conventional (non-compute) IO request.
#[derive(Debug, Clone)]
pub struct PlainIoResult {
    /// The bytes delivered to the host.
    pub data: Vec<u8>,
    /// Request duration.
    pub elapsed: SimDur,
}

impl PlainIoResult {
    /// Delivered throughput in bytes/second, `NaN` when no time
    /// elapsed (an instantaneous transfer has no defined rate).
    pub fn throughput_bps(&self) -> f64 {
        assasin_sim::stats::throughput_bps(self.data.len() as u64, self.elapsed).unwrap_or(f64::NAN)
    }
}

/// One computational SSD (Figure 6 for ASSASIN variants, Figure 4 for the
/// baseline architectures).
pub struct Ssd {
    cfg: SsdConfig,
    flash: FlashArray,
    ftl: Ftl,
    dram: SharedDram,
    pcie: Bandwidth,
    crossbar: Vec<Timeline>,
}

/// A preconditioned device image: the flash contents and FTL state of an
/// [`Ssd`], detached from its per-device timing structures and cheap to
/// fork into many identically loaded devices. Flash page payloads sit in
/// refcounted copy-on-write block arenas, so a fork costs O(blocks)
/// pointer bumps and shares every written page with its siblings until a
/// write diverges a block.
///
/// An image is `Send + Sync`: sweep threads fork from one shared image in
/// parallel.
#[derive(Debug, Clone)]
pub struct SsdImage {
    /// Fingerprint of the config facets that shaped the media contents.
    media_fp: String,
    flash: FlashArray,
    ftl: Ftl,
}

impl SsdImage {
    /// Forks a runnable device off this image under `cfg`, which may vary
    /// engine, core count, link and timing-adjustment settings freely but
    /// must keep the media identity (geometry, NAND timing, fault model)
    /// the image was loaded under — those determined the bytes on flash.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` changes geometry, NAND timing or the fault model.
    pub fn fork(&self, cfg: SsdConfig) -> Ssd {
        assert_eq!(
            media_fingerprint(&cfg),
            self.media_fp,
            "fork config changes the media this image was loaded on"
        );
        let mut ssd = Ssd::new(cfg);
        ssd.flash = self.flash.clone();
        ssd.ftl = self.ftl.clone();
        crate::counters::record_fork(ssd.flash.written_pages());
        ssd
    }
}

impl Ssd {
    /// Builds an SSD from a configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        let flash = FlashArray::with_faults(cfg.geometry, cfg.timing, cfg.fault);
        let ftl = Ftl::new(cfg.geometry);
        let dram = Dram::new(cfg.dram_latency, cfg.dram_bw).into_shared();
        let pcie = Bandwidth::new("pcie", cfg.pcie_bw);
        let crossbar = (0..cfg.n_cores)
            .map(|i| Timeline::new(format!("xbar-port-{i}")))
            .collect();
        Ssd {
            cfg,
            flash,
            ftl,
            dram,
            pcie,
            crossbar,
        }
    }

    /// This SSD's configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// FTL bookkeeping (write amplification etc.).
    pub fn ftl_stats(&self) -> assasin_ftl::FtlStats {
        self.ftl.stats()
    }

    /// Cumulative media-reliability counters (retries, corrections,
    /// uncorrectables, grown-bad blocks) for this device's lifetime.
    pub fn reliability(&self) -> assasin_flash::ReliabilityStats {
        self.flash.reliability_stats()
    }

    /// FTL read with SSD-level re-read attempts: an uncorrectable result is
    /// retried up to `media_retries` times, each re-issue backed off by one
    /// more `media_backoff` step (the chip's fault sequence advances per
    /// sense, so every re-read runs a fresh retry ladder). A page that
    /// stays uncorrectable surfaces as [`SsdError::Media`] with both its
    /// logical and physical address.
    fn ftl_read_retrying(
        &mut self,
        lpa: Lpa,
        issue: SimTime,
    ) -> Result<(Bytes, SimTime), SsdError> {
        let mut attempt = 0u32;
        loop {
            let when = issue + self.cfg.media_backoff * attempt as u64;
            match self.ftl.read(&mut self.flash, lpa, when) {
                Ok(ok) => return Ok(ok),
                Err(assasin_ftl::FtlError::Uncorrectable { .. })
                    if attempt < self.cfg.media_retries =>
                {
                    attempt += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Drops the flash copy of `lpa`'s block while leaving the L2P mapping
    /// in place — a deliberately inconsistent state that cannot arise
    /// through the public API. Test hook for exercising the typed
    /// error path on unwritten physical pages.
    #[doc(hidden)]
    pub fn corrupt_mapping_for_tests(&mut self, lpa: Lpa) {
        let addr = self.ftl.translate(lpa).expect("lpa must be mapped");
        self.flash
            .erase_block(
                addr.channel,
                addr.chip,
                addr.plane,
                addr.block,
                SimTime::ZERO,
            )
            .expect("erase for test corruption");
    }

    /// Replaces the FTL placement policy before loading a dataset
    /// (Section VI-E skewed layouts). `total_pages` is the number of pages
    /// about to be written under this policy.
    pub fn set_placement(&mut self, placement: Placement, total_pages: u64) {
        self.ftl.begin_stream(placement, total_pages);
    }

    /// Per-channel page distribution of a set of LPAs (skew verification).
    pub fn channel_distribution(&self, lpas: &[Lpa]) -> Vec<u64> {
        self.ftl.channel_distribution(lpas.iter().copied())
    }

    /// Writes `data` as consecutive logical pages starting at `first_lpa`
    /// (dataset loading; the last page is zero-padded). Returns the LPAs.
    ///
    /// # Errors
    ///
    /// Propagates FTL/flash failures (capacity, device full).
    pub fn load_object(&mut self, first_lpa: u64, data: &[u8]) -> Result<Vec<Lpa>, SsdError> {
        let page = self.cfg.geometry.page_bytes as usize;
        let n_pages = data.len().div_ceil(page);
        // One padded backing buffer for the whole object: flash pages are
        // refcounted slices into it, and downstream consumers (plan
        // trimming, streambuffer refills, bank assembly) keep slicing the
        // same arena instead of copying page-sized vectors around.
        let mut buf = vec![0u8; n_pages * page];
        buf[..data.len()].copy_from_slice(data);
        let arena = Bytes::from(buf);
        let mut lpas = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            let lpa = Lpa(first_lpa + i as u64);
            self.ftl.write(
                &mut self.flash,
                lpa,
                arena.slice(i * page..(i + 1) * page),
                SimTime::ZERO,
            )?;
            lpas.push(lpa);
        }
        Ok(lpas)
    }

    /// Serializes the whole device — flash contents, FTL state, DRAM,
    /// PCIe and crossbar timelines — into a versioned byte image.
    ///
    /// The configuration itself is not re-encoded field by field: its
    /// `Debug` rendering is stored as a fingerprint and the caller supplies
    /// the same [`SsdConfig`] again at [`Ssd::restore_state`], which fails
    /// with [`SnapError::ConfigMismatch`] on any drift. Identical device
    /// states produce identical bytes (every layer encodes canonically),
    /// so snapshots can be compared directly for equivalence.
    pub fn save_state(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(1 << 16);
        enc.u32(SNAP_MAGIC);
        enc.u16(SNAP_VERSION);
        enc.str(&format!("{:?}", self.cfg));
        enc.tag(TAG_FLASH);
        self.flash.save_state(&mut enc);
        enc.tag(TAG_FTL);
        self.ftl.save_state(&mut enc);
        enc.tag(TAG_DRAM);
        self.dram.lock().save_state(&mut enc);
        enc.tag(TAG_PCIE);
        self.pcie.save_state(&mut enc);
        enc.tag(TAG_XBAR);
        enc.len_of(self.crossbar.len());
        for p in &self.crossbar {
            p.save_state(&mut enc);
        }
        enc.into_bytes()
    }

    /// Rebuilds a device from [`Ssd::save_state`] bytes under the same
    /// configuration. Running a restored device forward is byte- and
    /// cycle-identical to running the original forward from the snapshot
    /// point (including fault-injection state: the per-chip fault sequence
    /// counters are part of the image).
    ///
    /// # Errors
    ///
    /// Fails with a typed [`SnapError`] on bad magic, an unsupported
    /// version, a configuration fingerprint mismatch, truncation, trailing
    /// bytes, or any structurally impossible field.
    pub fn restore_state(cfg: SsdConfig, bytes: &[u8]) -> Result<Self, SnapError> {
        let mut dec = Decoder::new(bytes);
        let magic = dec.u32()?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic { found: magic });
        }
        let version = dec.u16()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        let found = dec.str()?;
        let expected = format!("{:?}", cfg);
        if found != expected {
            return Err(SnapError::ConfigMismatch {
                found: found.to_string(),
                expected,
            });
        }
        let mut ssd = Ssd::new(cfg);
        dec.expect_tag(TAG_FLASH)?;
        ssd.flash.load_snapshot(&mut dec)?;
        dec.expect_tag(TAG_FTL)?;
        ssd.ftl.load_snapshot(&mut dec)?;
        dec.expect_tag(TAG_DRAM)?;
        let dram = Dram::restore_state(&mut dec)?;
        *ssd.dram.lock() = dram;
        dec.expect_tag(TAG_PCIE)?;
        ssd.pcie = Bandwidth::restore_state(&mut dec)?;
        dec.expect_tag(TAG_XBAR)?;
        let n = dec.len_of()?;
        if n != ssd.crossbar.len() {
            return Err(SnapError::Malformed(format!(
                "crossbar port count {n}, config has {}",
                ssd.crossbar.len()
            )));
        }
        for p in ssd.crossbar.iter_mut() {
            *p = Timeline::restore_state(&mut dec)?;
        }
        dec.finish()?;
        Ok(ssd)
    }

    /// Detaches this device's loaded media (flash contents + FTL state)
    /// into a [`SsdImage`] that can be forked into many identically
    /// preconditioned devices. Quiesces first, so every fork starts from
    /// idle at t = 0 exactly like a freshly loaded device.
    pub fn into_image(mut self) -> SsdImage {
        self.quiesce();
        SsdImage {
            media_fp: media_fingerprint(&self.cfg),
            flash: self.flash,
            ftl: self.ftl,
        }
    }

    /// Returns all shared resources to idle at t = 0, keeping data — the
    /// boundary between setup and a measured run.
    pub fn quiesce(&mut self) {
        self.flash.reset_time();
        self.dram.lock().reset_time();
        self.pcie.reset_time();
        for p in &mut self.crossbar {
            p.reset_time();
        }
    }

    /// Conventional read of `bytes` spanning `lpas`, delivered to the host
    /// over PCIe (the no-offload path of Figure 15's CPU-only bars).
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages.
    pub fn read_lpas(&mut self, lpas: &[Lpa], bytes: u64) -> Result<PlainIoResult, SsdError> {
        self.quiesce();
        let page = self.cfg.geometry.page_bytes as u64;
        let mut data = Vec::with_capacity(bytes as usize);
        let mut done = SimTime::ZERO;
        for &lpa in lpas {
            let (payload, arrival) = self.ftl_read_retrying(lpa, SimTime::ZERO)?;
            // Stage in DRAM, then DMA to the host.
            let staged = self.dram.lock().post(arrival, page);
            let sent = self.pcie.transfer(staged, page) + self.cfg.pcie_latency;
            done = done.max(sent);
            data.extend_from_slice(&payload);
        }
        data.truncate(bytes as usize);
        Ok(PlainIoResult {
            data,
            elapsed: done.since(SimTime::ZERO),
        })
    }

    /// Functional read without timing effects (the harness uses this to
    /// build golden inputs).
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages.
    pub fn peek_bytes(&mut self, lpas: &[Lpa], bytes: u64) -> Result<Vec<u8>, SsdError> {
        let mut data = Vec::with_capacity(bytes as usize);
        for &lpa in lpas {
            let (payload, _) = self.ftl_read_retrying(lpa, SimTime::ZERO)?;
            data.extend_from_slice(&payload);
        }
        data.truncate(bytes as usize);
        self.quiesce();
        Ok(data)
    }

    fn style(&self) -> AccessStyle {
        match self.cfg.engine {
            EngineKind::Baseline | EngineKind::Prefetch => AccessStyle::Mem,
            EngineKind::AssasinSp => AccessStyle::PingPong,
            _ => AccessStyle::Stream,
        }
    }

    fn validate(&self, req: &ScompRequest) -> Result<Vec<u64>, SsdError> {
        if req.input_streams.is_empty() || req.input_streams.len() > 4 {
            return Err(SsdError::BadRequest(
                "scomp needs 1..=4 input streams".into(),
            ));
        }
        let page = self.cfg.geometry.page_bytes as u64;
        let mut bytes = Vec::new();
        for (i, lpas) in req.input_streams.iter().enumerate() {
            if lpas.is_empty() {
                return Err(SsdError::BadRequest(format!("stream {i} is empty")));
            }
            let b = req
                .stream_bytes
                .as_ref()
                .map(|v| v[i])
                .unwrap_or(lpas.len() as u64 * page);
            if b > lpas.len() as u64 * page {
                return Err(SsdError::BadRequest(format!(
                    "stream {i} claims more bytes than its pages hold"
                )));
            }
            bytes.push(b);
        }
        if bytes.windows(2).any(|w| w[0] != w[1]) {
            return Err(SsdError::BadRequest(
                "input streams must have equal lengths".into(),
            ));
        }
        Ok(bytes)
    }

    /// Builds per-core, per-stream page plans from byte ranges.
    fn build_plans(
        &self,
        req: &ScompRequest,
        stream_bytes: &[u64],
    ) -> Result<Vec<Vec<StreamPlan>>, SsdError> {
        let page = self.cfg.geometry.page_bytes as u64;
        let n_cores = self.cfg.n_cores;
        let gran = req.kernel.granularity() as u64;
        if self.cfg.channel_local {
            // Figure 7 comparator: core i consumes the pages living on
            // channel i (no crossbar redistribution, so layout dictates
            // load balance).
            if req.input_streams.len() != 1 {
                return Err(SsdError::BadRequest(
                    "channel-local mode supports one input stream".into(),
                ));
            }
            if !page.is_multiple_of(gran) {
                return Err(SsdError::BadRequest(
                    "channel-local mode needs page-aligned objects".into(),
                ));
            }
            let mut plans: Vec<Vec<StreamPlan>> =
                (0..n_cores).map(|_| vec![StreamPlan::default()]).collect();
            let lpas = &req.input_streams[0];
            let total = stream_bytes[0];
            for (i, &lpa) in lpas.iter().enumerate() {
                let addr = self
                    .ftl
                    .translate(lpa)
                    .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
                let start = i as u64 * page;
                if start >= total {
                    break;
                }
                let len = page.min(total - start) as u32;
                let core = addr.channel as usize % n_cores;
                plans[core][0].push(PagePlan {
                    addr,
                    offset: 0,
                    len,
                });
            }
            return Ok(plans);
        }
        let mut ranges = split_ranges(stream_bytes[0], n_cores, gran);
        if let Some(delim) = req.kernel.record_delim() {
            self.snap_to_delimiters(&mut ranges, &req.input_streams[0], stream_bytes[0], delim)?;
        }
        let ranges = ranges;
        let mut plans = Vec::with_capacity(n_cores);
        for &(start, end) in &ranges {
            let mut per_stream = Vec::new();
            for lpas in &req.input_streams {
                let mut plan = StreamPlan::default();
                if end > start {
                    let first_page = start / page;
                    let last_page = (end - 1) / page;
                    for p in first_page..=last_page {
                        let lpa = lpas[p as usize];
                        let addr = self
                            .ftl
                            .translate(lpa)
                            .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
                        let page_start = p * page;
                        let lo = start.max(page_start);
                        let hi = end.min(page_start + page);
                        plan.push(PagePlan {
                            addr,
                            offset: (lo - page_start) as u32,
                            len: (hi - lo) as u32,
                        });
                    }
                }
                per_stream.push(plan);
            }
            plans.push(per_stream);
        }
        Ok(plans)
    }

    /// Moves each interior shard boundary forward to just past the next
    /// `delim` byte, so no variable-length record straddles two engines.
    /// A control-plane pass: the firmware peeks page contents without
    /// spending simulated time (boundary probing touches a handful of
    /// bytes per core, negligible next to the streamed data).
    fn snap_to_delimiters(
        &self,
        ranges: &mut [(u64, u64)],
        lpas: &[Lpa],
        total: u64,
        delim: u8,
    ) -> Result<(), SsdError> {
        let page = self.cfg.geometry.page_bytes as u64;
        let peek = |pos: u64| -> Result<u8, SsdError> {
            let lpa = lpas[(pos / page) as usize];
            let addr = self
                .ftl
                .translate(lpa)
                .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
            let data = self
                .flash
                .peek_page(addr)
                .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
            Ok(data[(pos % page) as usize])
        };
        for i in 0..ranges.len().saturating_sub(1) {
            let mut b = ranges[i].1.max(ranges[i].0);
            if b > 0 && b < total {
                // Scan forward to the byte after the next delimiter.
                while b < total && peek(b - 1)? != delim {
                    b += 1;
                }
            }
            ranges[i].1 = b.min(total);
            ranges[i + 1].0 = ranges[i].1;
        }
        if let Some(last) = ranges.last_mut() {
            last.1 = last.1.max(last.0);
        }
        Ok(())
    }

    /// Executes a computational-storage request.
    ///
    /// Requests whose kernels only read streams (the lane-eligibility gate,
    /// see [`lane_eligible`]) bypass the bounded-epoch co-simulation loop:
    /// their cores run on the lane-batched executor, which produces
    /// byte-identical results. Use [`scomp_group`] to additionally batch
    /// lanes *across* requests that share a program.
    ///
    /// # Errors
    ///
    /// Fails on malformed requests, unmapped pages, or kernel model errors.
    pub fn scomp(&mut self, req: &ScompRequest) -> Result<ScompResult, SsdError> {
        if self.cfg.engine == EngineKind::Udp {
            let stream_bytes = self.validate(req)?;
            self.quiesce();
            if req.output != OutputTarget::Host {
                return Err(SsdError::BadRequest(
                    "the analytical UDP path models read-path offloads only".into(),
                ));
            }
            return self.scomp_udp(req, &stream_bytes);
        }
        let mut session = self.scomp_session(req)?;
        if session.lane_ok {
            session.run_lane()?;
        } else {
            session.run_epochs(req)?;
        }
        session.finalize()
    }

    /// Validates `req` and builds the in-flight [`Session`]: plans, cores,
    /// backend, per-style setup — everything up to (but excluding) core
    /// execution. Not supported for the analytical UDP engine.
    fn scomp_session<'s>(&'s mut self, req: &ScompRequest) -> Result<Session<'s>, SsdError> {
        debug_assert!(self.cfg.engine != EngineKind::Udp);
        let stream_bytes = self.validate(req)?;
        self.quiesce();
        let style = self.style();
        let program = req.kernel.program(style);
        let core_cfg = self.cfg.core_config();
        let n_cores = self.cfg.n_cores;
        let mut plans = self.build_plans(req, &stream_bytes)?;
        let n_in = req.input_streams.len();
        // For the DRAM-bypassing styles the flash controllers deliver pages
        // ahead of consumption; schedule every page's arrival now. The Mem
        // style stages into DRAM windows instead (see `stage_windows`).
        let scheduled = if style == AccessStyle::Mem {
            plans
                .iter()
                .map(|s| s.iter().map(|_| Default::default()).collect())
                .collect()
        } else {
            schedule_plans(
                &mut self.flash,
                &mut self.crossbar,
                self.cfg.crossbar_port_bw,
                self.cfg.firmware_poll,
                self.cfg.media_retries,
                self.cfg.media_backoff,
                &mut plans,
            )?
        };

        let mut cores = new_cores(n_cores, core_cfg, &program, req, &self.dram)?;

        let sink = match req.output {
            OutputTarget::Host => Sink::Host,
            OutputTarget::Flash { first_lpa } => {
                // Disjoint per-engine LPA regions sized by the kernel's
                // output bound.
                let page = self.cfg.geometry.page_bytes as u64;
                let total_in: u64 = stream_bytes.iter().sum();
                let cap_pages = ((total_in as f64 * req.kernel.max_out_per_in()).ceil() as u64)
                    .div_ceil(page)
                    .div_ceil(n_cores as u64)
                    + 2;
                if first_lpa + n_cores as u64 * cap_pages > self.ftl.exported_pages() {
                    return Err(SsdError::BadRequest(
                        "write-path output region exceeds exported capacity".into(),
                    ));
                }
                Sink::Flash(FlashOut {
                    next: (0..n_cores as u64)
                        .map(|i| first_lpa + i * cap_pages)
                        .collect(),
                    lpas: vec![Vec::new(); n_cores],
                    fill: vec![Vec::new(); n_cores],
                    prog_done: vec![SimTime::ZERO; n_cores],
                    page_bytes: self.cfg.geometry.page_bytes,
                })
            }
        };
        let mut backend = Backend {
            feeds: scheduled
                .into_iter()
                .map(|queues| CoreFeed {
                    queues,
                    streamed: 0,
                    bank_bytes: core_cfg.staging_bytes,
                    granularity: req.kernel.granularity(),
                })
                .collect(),
            shared: SharedPlane {
                flash: &mut self.flash,
                ftl: &mut self.ftl,
                sink,
                dram: self.dram.clone(),
                pcie: &mut self.pcie,
                outputs: vec![Vec::new(); n_cores],
                out_done: vec![SimTime::ZERO; n_cores],
                pcie_latency: self.cfg.pcie_latency,
                failure: None,
            },
        };

        // ---- per-style setup -------------------------------------------
        let mut mem_out_offsets = vec![0u64; n_cores];
        let mut mem_staging = None;
        match style {
            AccessStyle::Stream => {
                for (id, core) in cores.iter_mut().enumerate() {
                    for sid in 0..n_in as u32 {
                        backend.refill_stream(id, sid, SimTime::ZERO, core.sbuf_mut());
                    }
                }
            }
            AccessStyle::PingPong => {} // banks assembled on demand
            AccessStyle::Mem => {
                let staging = self::stage_windows(
                    &mut backend,
                    &mut plans,
                    req,
                    self.cfg.geometry.page_bytes,
                    self.cfg.firmware_poll,
                    self.cfg.media_retries,
                    self.cfg.media_backoff,
                    &mut mem_out_offsets,
                )?;
                staging.install(&mut cores)?;
                mem_staging = Some(staging);
            }
        }

        Ok(Session {
            cfg: self.cfg,
            core_cfg,
            style,
            output: req.output,
            lane_ok: lane_cap() > 1 && lane_eligible(style, &program),
            lane_width_used: 1,
            backend,
            cores,
            mem_out_offsets,
            mem_staging,
        })
    }

    /// The analytical UDP path: functional results from a reference run,
    /// timing from the lane model plus the SSD-level DRAM data path.
    fn scomp_udp(
        &mut self,
        req: &ScompRequest,
        stream_bytes: &[u64],
    ) -> Result<ScompResult, SsdError> {
        // Functional reference run on a scratchpad-walking (PingPong-style)
        // core with instant data: UDP lanes walk firmware-filled
        // scratchpads with explicit pointers, so this style's instruction
        // stream is the right input to the lane model.
        let program = req.kernel.program(AccessStyle::PingPong);
        let mut env = SyntheticEnv::new(8, self.cfg.geometry.page_bytes as usize);
        let mut inputs_total = 0u64;
        let streams: Vec<Vec<u8>> = req
            .input_streams
            .iter()
            .enumerate()
            .map(|(sid, lpas)| self.peek_bytes(lpas, stream_bytes[sid]))
            .collect::<Result<_, _>>()?;
        for data in &streams {
            inputs_total += data.len() as u64;
        }
        // Interleave streams into banks, chunked on object boundaries
        // (UDP's firmware copies DRAM data into the 256 KiB lane
        // scratchpad the same way).
        let core_cfg = assasin_core::CoreConfig::udp();
        let bank_bytes = core_cfg.scratchpad_bytes as usize / 2;
        let n = streams.len();
        let len = streams[0].len();
        let gran = req.kernel.granularity() as usize;
        let chunk = ((bank_bytes / n / gran).max(1)) * gran;
        let mut banks = Vec::new();
        let mut pos = 0usize;
        while pos < len {
            let take = chunk.min(len - pos);
            for data in &streams {
                banks.extend_from_slice(&data[pos..pos + take]);
            }
            pos += take;
        }
        env.set_banks(&banks, (chunk * n).min(banks.len().max(1)));
        let ref_cfg = assasin_core::CoreConfig {
            staging_bytes: core_cfg.scratchpad_bytes,
            ..assasin_core::CoreConfig::assasin_sp()
        };
        let mut core = Core::new(0, ref_cfg, program, None);
        for (off, bytes) in req.kernel.scratchpad_image() {
            core.scratchpad_mut()
                .write_bytes(*off as u64, bytes)
                .map_err(|e| SsdError::BadRequest(format!("scratchpad image: {e}")))?;
        }
        core.run_to_halt(&mut env);
        if let CoreState::Wedged(m) = core.state() {
            return Err(SsdError::CoreWedged(m.clone()));
        }
        let output = env.bank_output().to_vec();
        let bytes_out = output.len() as u64;

        let profile = KernelProfile::from_mix(core.mix(), inputs_total.max(1), bytes_out);
        let lane = UdpLane::new(self.cfg.core_config().clock);
        let compute_bps = self.cfg.n_cores as f64 * lane.compute_bps(&profile);
        // UDP's data path (Table IV): flash -> DRAM staging (1x), firmware
        // copy DRAM -> lane scratchpad (1x), results -> DRAM (out/in).
        let traffic_per_byte = 2.0 + profile.out_per_in;
        let dram_bps = self.cfg.dram_bw / traffic_per_byte;
        let throughput = compute_bps.min(dram_bps).min(self.cfg.flash_bw());
        let elapsed =
            SimDur::from_secs_f64(inputs_total as f64 / throughput) + self.cfg.pcie_latency;

        let channels = self.cfg.geometry.channels as u64;
        Ok(ScompResult {
            elapsed,
            bytes_in: inputs_total,
            bytes_out,
            outputs: vec![output],
            per_core: Vec::new(),
            dram_traffic: (inputs_total as f64 * traffic_per_byte) as u64,
            output_lpas: Vec::new(),
            channel_bytes: vec![inputs_total / channels; channels as usize],
            channel_busy: vec![SimDur::ZERO; channels as usize],
        })
    }
}

/// A request's cores as they start: the program loaded and the kernel's
/// scratchpad image written.
fn new_cores(
    n_cores: usize,
    core_cfg: CoreConfig,
    program: &Program,
    req: &ScompRequest,
    dram: &SharedDram,
) -> Result<Vec<Core>, SsdError> {
    let mut cores: Vec<Core> = Vec::with_capacity(n_cores);
    for id in 0..n_cores {
        let mut core = Core::new(id, core_cfg, program.clone(), Some(dram.clone()));
        for (off, bytes) in req.kernel.scratchpad_image() {
            core.scratchpad_mut()
                .write_bytes(*off as u64, bytes)
                .map_err(|e| SsdError::BadRequest(format!("scratchpad image: {e}")))?;
        }
        cores.push(core);
    }
    Ok(cores)
}

/// The DRAM windows of a Mem-style request (the Baseline data path): each
/// core's window and launch registers, and every page the firmware staged
/// into them. Kept until the request ends, so that its cores can be built
/// again from the start (see [`Session::run_rounds`]).
struct MemStaging {
    page_bytes: u32,
    /// Per core: window size, then the input length, stream stride and
    /// output offset the kernel reads from its launch registers.
    windows: Vec<(usize, [u32; 3])>,
    /// `(core, window offset, payload, staged at)`.
    pages: Vec<(usize, u64, Bytes, SimTime)>,
}

impl MemStaging {
    /// Attaches the windows to freshly built `cores` and stages the pages.
    fn install(&self, cores: &mut [Core]) -> Result<(), SsdError> {
        let (r_len, r_stride, r_out) = assasin_kernels::LaunchInfo::regs();
        for (core, &(size, [len, stride, out])) in cores.iter_mut().zip(&self.windows) {
            core.set_window(DramWindow::new(size, self.page_bytes));
            core.set_reg(r_len, len);
            core.set_reg(r_stride, stride);
            core.set_reg(r_out, out);
        }
        for (id, offset, payload, at) in &self.pages {
            let window = cores.get_mut(*id).and_then(|c| c.window_mut());
            engine_window(window, *id, "mem staging")?.stage(*offset, payload, *at);
        }
        Ok(())
    }
}

/// Reads every planned page for per-core DRAM windows (the Baseline data
/// path): flash read, per-page availability time. Round-robins across
/// cores and streams so channels serve everyone fairly. The DRAM bus cost
/// of staging is charged when the core's cache fills from the window
/// (`fill_bytes_factor = 2` in the hierarchy: staging write + demand
/// read), which also gives the correct consumption-paced backpressure.
#[allow(clippy::too_many_arguments)]
fn stage_windows(
    backend: &mut Backend<'_>,
    plans: &mut [Vec<StreamPlan>],
    req: &ScompRequest,
    page_bytes: u32,
    firmware_poll: assasin_sim::SimDur,
    media_retries: u32,
    media_backoff: assasin_sim::SimDur,
    out_offsets: &mut [u64],
) -> Result<MemStaging, SsdError> {
    let n_in = req.input_streams.len();
    // Window layout per core: n_in stream regions + output area.
    let mut windows = Vec::with_capacity(plans.len());
    for (id, streams) in plans.iter().enumerate() {
        let in_len: u64 = streams.first().map(|p| p.remaining_bytes()).unwrap_or(0);
        let stride = in_len.next_multiple_of(64);
        let out_offset = (stride * n_in as u64).next_multiple_of(page_bytes as u64);
        let out_space = ((in_len as f64 * n_in as f64 * req.kernel.max_out_per_in()).ceil() as u64)
            .next_multiple_of(64)
            + 64;
        out_offsets[id] = out_offset;
        windows.push((
            (out_offset + out_space) as usize,
            [in_len as u32, stride as u32, out_offset as u32],
        ));
    }
    // Drain plans into the windows, page by page, round-robin.
    let dram_latency = backend.shared.dram.lock().latency();
    let mut queues: Vec<(usize, usize, u64, StreamPlan)> = Vec::new();
    for (id, streams) in plans.iter_mut().enumerate() {
        let in_len: u64 = streams.first().map(|p| p.remaining_bytes()).unwrap_or(0);
        let stride = in_len.next_multiple_of(64);
        for (sid, plan) in streams.iter_mut().enumerate() {
            let pages = std::mem::take(plan);
            queues.push((id, sid, stride, pages));
        }
    }
    let mut pages = Vec::new();
    let mut cursors = vec![0u64; queues.len()];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (qi, (id, sid, stride, plan_pages)) in queues.iter_mut().enumerate() {
            let Some(plan) = plan_pages.pop() else {
                continue;
            };
            progressed = true;
            let issue = SimTime::ZERO + firmware_poll;
            let (data, flash_arrival) = crate::backend::read_page_retrying(
                backend.shared.flash,
                plan.addr,
                issue,
                media_retries,
                media_backoff,
            )?;
            let payload = data.slice(plan.offset as usize..(plan.offset + plan.len) as usize);
            backend.feeds[*id].streamed += plan.len as u64;
            let offset = *sid as u64 * *stride + cursors[qi];
            cursors[qi] += plan.len as u64;
            pages.push((*id, offset, payload, flash_arrival + dram_latency));
        }
    }
    Ok(MemStaging {
        page_bytes,
        windows,
        pages,
    })
}

/// An engine's DRAM window, or a typed invariant error if it is not
/// attached. Both the staging loop and Mem-style finalization used to
/// `.expect()` here, so a request hitting a detached window aborted the
/// whole process; a long-lived server needs the request to fail instead.
fn engine_window<W>(window: Option<W>, id: usize, what: &str) -> Result<W, SsdError> {
    window.ok_or_else(|| SsdError::Invariant(format!("{what}: engine {id} has no DRAM window")))
}

/// Formats the `SsdError::Stuck` diagnostic: per-core execution state plus
/// the earliest pending backend event, so a hung co-simulation names its
/// culprit instead of just a round count.
fn stuck_report(rounds: u64, deadline: SimTime, cores: &[Core], backend: &Backend<'_>) -> String {
    use std::fmt::Write;
    let mut msg = format!("no completion after {rounds} co-sim rounds (deadline {deadline}):");
    for core in cores {
        let state = match core.state() {
            CoreState::Running => "running".to_string(),
            CoreState::Halted => "halted".to_string(),
            CoreState::Wedged(m) => format!("wedged: {m}"),
        };
        let _ = write!(
            msg,
            "\n  core {} pc={} t={} [{}]",
            core.id(),
            core.pc(),
            core.local_time(),
            state
        );
    }
    match backend.next_event(SimTime::ZERO) {
        Some(t) => {
            let _ = write!(msg, "\n  next backend event at {t}");
        }
        None => msg.push_str("\n  no pending backend events"),
    }
    msg
}

/// An in-flight `scomp` request: validated, planned, cores constructed and
/// per-style setup done — everything except core execution and
/// finalization. Splitting the request here lets [`scomp_group`] drive the
/// execution phase of *several* requests through one lane-batched dispatch
/// loop ([`run_lanes`]) before finalizing each one independently.
struct Session<'s> {
    cfg: SsdConfig,
    core_cfg: CoreConfig,
    style: AccessStyle,
    output: OutputTarget,
    /// May this request bypass the epoch loop? See [`lane_eligible`].
    lane_ok: bool,
    /// Widest lane batch this session's cores ran in (1 = scalar).
    lane_width_used: u64,
    backend: Backend<'s>,
    cores: Vec<Core>,
    mem_out_offsets: Vec<u64>,
    /// The DRAM windows of a Mem-style request.
    mem_staging: Option<MemStaging>,
}

impl Session<'_> {
    /// The reference execution path: bounded-epoch co-simulation, each
    /// round in two phases (see [`crate::round`]). Phase 1 gets a helper
    /// thread when the process-wide thread budget has one to lease and
    /// this thread's cap allows it; nested callers (array workers, sweep
    /// points) find the budget spent and run serially.
    fn run_epochs(&mut self, req: &ScompRequest) -> Result<(), SsdError> {
        let lease = assasin_parallel::claim_threads(
            assasin_parallel::current_max_threads()
                .saturating_sub(1)
                .min(1),
        );
        self.run_rounds(req, lease.claimed() > 0)
    }

    /// [`Session::run_epochs`] with the helper thread decided by the
    /// caller.
    ///
    /// A run with deferred DRAM timing that exhausts its round budget
    /// leaves its cores ahead of their serial state, which the stuck
    /// report describes. So it is run again serially from the start: the
    /// DRAM bus as the rounds found it, and the cores built again from
    /// `req` and the staged windows (the rounds touch nothing else of the
    /// device in a Mem-style request).
    fn run_rounds(&mut self, req: &ScompRequest, threaded: bool) -> Result<(), SsdError> {
        let bus = self
            .mem_staging
            .as_ref()
            .map(|_| self.backend.shared.dram.lock().clone());
        let mut ran = run_rounds(
            &self.cfg,
            &mut self.cores,
            &mut self.backend.feeds,
            &mut self.backend.shared,
            threaded,
        );
        if let (Err(Stop::Rerun), Some(staging), Some(bus)) = (&ran, &self.mem_staging, bus) {
            *self.backend.shared.dram.lock() = bus;
            let program = req.kernel.program(self.style);
            let dram = self.backend.shared.dram.clone();
            self.cores = new_cores(self.cores.len(), self.core_cfg, &program, req, &dram)?;
            staging.install(&mut self.cores)?;
            ran = run_rounds(
                &self.cfg,
                &mut self.cores,
                &mut self.backend.feeds,
                &mut self.backend.shared,
                false,
            );
        }
        ran.map_err(|stop| match stop {
            Stop::Wedged(m) => SsdError::CoreWedged(m),
            Stop::Stuck { rounds, deadline } => {
                SsdError::Stuck(stuck_report(rounds, deadline, &self.cores, &self.backend))
            }
            Stop::Rerun => {
                SsdError::Invariant("deferred rounds ran out without staged windows".into())
            }
            Stop::Failed(e) => e,
        })
    }

    /// Cycle budget equal to the epoch loop's round budget. The scalar loop
    /// stops cores at deadline `(max_rounds + 1) * epoch` before declaring
    /// the request stuck, so the lane path grants exactly that many cycles
    /// and reports the same diagnostic at the same deadline.
    fn lane_cycle_limit(&self) -> u64 {
        self.cfg
            .epoch
            .as_ps()
            .saturating_mul(self.cfg.max_rounds + 1)
            / self.core_cfg.clock.period_ps()
    }

    /// Runs this session's own cores on the lane executor (no epoch loop).
    fn run_lane(&mut self) -> Result<(), SsdError> {
        let limit = self.lane_cycle_limit();
        let exec = AnyExec::for_width(self.cores.len().min(lane_cap()));
        let mut groups = [LaneGroup {
            env: &mut self.backend,
            cores: self.cores.as_mut_slice(),
        }];
        self.lane_width_used = run_lanes(&mut groups, exec, limit) as u64;
        self.after_lane_run()
    }

    /// Maps post-lane-run core states onto the epoch loop's outcomes:
    /// wedged cores error in core order; a core still running after the
    /// full cycle budget reports the scalar loop's stuck diagnostic.
    fn after_lane_run(&mut self) -> Result<(), SsdError> {
        record_lanes(self.lane_width_used);
        self.backend.shared.take_failure()?;
        for core in &self.cores {
            if let CoreState::Wedged(m) = core.state() {
                return Err(SsdError::CoreWedged(m.clone()));
            }
        }
        if self.cores.iter().any(|c| c.state() == &CoreState::Running) {
            let rounds = self.cfg.max_rounds + 1;
            record_cosim(rounds, 0);
            let deadline = SimTime::from_ps(self.cfg.epoch.as_ps().saturating_mul(rounds));
            return Err(SsdError::Stuck(stuck_report(
                rounds,
                deadline,
                &self.cores,
                &self.backend,
            )));
        }
        record_cosim(1, 0);
        Ok(())
    }

    /// Flushes residual output, moves Mem-style results to the output
    /// target, settles write-path durability, and assembles the report.
    fn finalize(self) -> Result<ScompResult, SsdError> {
        let Session {
            cfg,
            style,
            output,
            mut backend,
            mut cores,
            mem_out_offsets,
            ..
        } = self;
        let shared = &mut backend.shared;
        let mut elapsed_end = SimTime::ZERO;
        for (id, core) in cores.iter_mut().enumerate() {
            let halt_time = core.local_time();
            match style {
                AccessStyle::Stream => {
                    if let Some(tail) = core
                        .sbuf_mut()
                        .flush(0)
                        .map_err(|e| SsdError::CoreWedged(format!("flush: {e}")))?
                    {
                        shared.drain(id, &tail, halt_time);
                    }
                }
                AccessStyle::Mem => {
                    // Results sit in the DRAM window; move them to the
                    // request's output target.
                    let cursor = core.reg(Reg::S5) as u64;
                    let base = 0x1000_0000 + mem_out_offsets[id];
                    let out_len = cursor.saturating_sub(base);
                    if out_len > 0 {
                        // Both the window's presence and the output
                        // cursor are program-observable state; a buggy
                        // kernel scribbling S5 must fail the request,
                        // not abort the process.
                        let window = engine_window(core.window(), id, "mem finalize")?;
                        let end = mem_out_offsets[id].saturating_add(out_len);
                        if end > window.size() as u64 {
                            return Err(SsdError::Invariant(format!(
                                "mem finalize: engine {id} output cursor {cursor:#x} places \
                                 results at {:#x}..{end:#x}, past its {}-byte DRAM window",
                                mem_out_offsets[id],
                                window.size(),
                            )));
                        }
                        let data = window.bytes(mem_out_offsets[id], out_len as usize).to_vec();
                        match output {
                            OutputTarget::Host => {
                                let staged = shared.dram.lock().post(halt_time, out_len);
                                let sent = shared.pcie.transfer(staged, out_len) + cfg.pcie_latency;
                                shared.outputs[id].extend_from_slice(&data);
                                shared.out_done[id] = shared.out_done[id].max(sent);
                            }
                            OutputTarget::Flash { .. } => {
                                // DRAM read of the results, then flash writes.
                                shared.dram.lock().post(halt_time, out_len);
                                shared.drain(id, &data, halt_time);
                            }
                        }
                    }
                }
                AccessStyle::PingPong => {}
            }
            // Write path: pad and flush the engine's trailing partial page;
            // the request completes when programs are durable.
            if let Sink::Flash(fo) = &mut shared.sink {
                let now = halt_time.max(shared.out_done[id]);
                fo.flush(id, shared.ftl, shared.flash, now)?;
                shared.out_done[id] = shared.out_done[id].max(fo.prog_done[id]);
            }
            shared.take_failure()?;
            elapsed_end = elapsed_end.max(halt_time.max(shared.out_done[id]));
        }
        let elapsed = elapsed_end.since(SimTime::ZERO);

        let per_core = cores
            .iter()
            .zip(&backend.feeds)
            .zip(&backend.shared.outputs)
            .map(|((core, feed), output)| {
                let busy_time = core.config().clock.cycles_to_dur(core.breakdown().busy);
                CoreReport {
                    cycles: core.cycles(),
                    breakdown: core.breakdown().clone(),
                    mix: *core.mix(),
                    bytes_in: feed.streamed,
                    bytes_out: output.len() as u64,
                    utilization: if elapsed.is_zero() {
                        0.0
                    } else {
                        busy_time.as_secs_f64() / elapsed.as_secs_f64()
                    },
                }
            })
            .collect::<Vec<_>>();

        let bytes_in = backend.bytes_streamed();
        let shared = backend.shared;
        let output_lpas = match shared.sink {
            Sink::Host => Vec::new(),
            Sink::Flash(fo) => fo.lpas,
        };
        let outputs = shared.outputs;
        let bytes_out = outputs.iter().map(|o| o.len() as u64).sum();
        let channels = cfg.geometry.channels;
        let channel_bytes = (0..channels)
            .map(|c| shared.flash.channel_stats(c).bytes_read)
            .collect();
        let channel_busy = (0..channels)
            .map(|c| shared.flash.channel_busy(c))
            .collect();
        let dram_traffic = shared.dram.lock().bytes_moved();

        Ok(ScompResult {
            elapsed,
            bytes_in,
            bytes_out,
            outputs,
            per_core,
            dram_traffic,
            output_lpas,
            channel_bytes,
            channel_busy,
        })
    }
}

/// May a request's cores run on the lane executor instead of the epoch
/// loop?
///
/// The lane executor interleaves instructions from different cores (and,
/// under [`scomp_group`], different requests) in an order the scalar epoch
/// loop never produces, so it is only used when any interleaving yields
/// byte-identical results. That holds when every core/environment
/// interaction is commutative: `Stream`-style refills come from
/// pre-scheduled per-`(core, stream)` arrival queues and only bump additive
/// byte counters. Output drains are *not* commutative — they contend for
/// the shared PCIe link and write-path flash in grant order — so any
/// [`Instr::StreamStore`] (and the `PingPong`-only [`Instr::BufSwap`])
/// disqualifies the program. Mem-style requests share the DRAM model and
/// cache hierarchy and always take the epoch loop.
fn lane_eligible(style: AccessStyle, program: &Program) -> bool {
    style == AccessStyle::Stream
        && !program
            .iter()
            .any(|i| matches!(i, Instr::StreamStore { .. } | Instr::BufSwap { .. }))
}

/// The process-wide lane cap cell: 0 = not yet initialized from the
/// environment.
static LANE_CAP: AtomicUsize = AtomicUsize::new(0);

/// Maximum lane width (clamped to `1..=8`; `1` keeps every request on the
/// scalar epoch loop). Seeded from `ASSASIN_LANES` on first use and
/// overridable via [`set_lane_cap`].
///
/// Defaults to `1`: with macro-op fusion the scalar dispatch loop is fast
/// enough that lockstep lane batching measures *slower* on flash-fed
/// streaming sessions (the batch multiplies the resident working set by
/// its width), so the lane executor is an opt-in for the workloads where
/// it wins — see `DESIGN.md` §13.
fn lane_cap() -> usize {
    match LANE_CAP.load(Ordering::Relaxed) {
        0 => {
            let cap = std::env::var("ASSASIN_LANES")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .map_or(1, |n| n.clamp(1, 8));
            LANE_CAP.store(cap, Ordering::Relaxed);
            cap
        }
        cap => cap,
    }
}

/// Overrides the lane cap for subsequent `scomp`/[`scomp_group`] calls
/// (clamped to `1..=8`): `1` forces scalar execution, `2..=8` enables the
/// lane-batched executor at that width. The perf harness uses this to
/// measure batched-vs-scalar wall time inside one process; the equivalence
/// suite uses it to compare both paths directly. Takes precedence over
/// `ASSASIN_LANES`.
pub fn set_lane_cap(cap: usize) {
    LANE_CAP.store(cap.clamp(1, 8), Ordering::Relaxed);
}

/// Executes a batch of computational-storage requests, lane-batching
/// *across* requests: the lane-eligible sessions (see [`lane_eligible`])
/// whose cores share a predecoded program image are driven in lockstep by
/// one dispatch loop, amortizing fetch/decode over up to eight sweep
/// points. Results are byte-identical to calling [`Ssd::scomp`] per
/// request, in order; ineligible requests silently fall back to exactly
/// that.
///
/// Each request borrows its own `Ssd`, so grouping never changes
/// cross-request state: sessions only share the dispatch loop, never
/// flash, DRAM, or PCIe models.
pub fn scomp_group<'a>(
    items: impl IntoIterator<Item = (&'a mut Ssd, &'a ScompRequest)>,
) -> Vec<Result<ScompResult, SsdError>> {
    enum Slot<'s> {
        Done(Result<ScompResult, SsdError>),
        // Boxed: a live session is ~0.7 KiB vs the ~150 B result.
        Lane(Box<Session<'s>>),
    }

    // Phase 1: set up every request; run the ineligible ones to completion
    // on the spot (their execution can't be shared anyway).
    let mut slots: Vec<Slot<'a>> = Vec::new();
    for (ssd, req) in items {
        if ssd.cfg.engine == EngineKind::Udp {
            slots.push(Slot::Done(ssd.scomp(req)));
            continue;
        }
        match ssd.scomp_session(req) {
            Err(e) => slots.push(Slot::Done(Err(e))),
            Ok(mut session) if !session.lane_ok => {
                let r = match session.run_epochs(req) {
                    Ok(()) => session.finalize(),
                    Err(e) => Err(e),
                };
                slots.push(Slot::Done(r));
            }
            Ok(session) => slots.push(Slot::Lane(Box::new(session))),
        }
    }

    // Phase 2: one lane dispatch per distinct cycle budget. Sessions with
    // different epoch/round/clock settings get different budgets and must
    // not share a `run_lanes` call; within a budget, `run_lanes` itself
    // only batches cores that share a program image.
    let mut limits: Vec<u64> = slots
        .iter()
        .filter_map(|s| match s {
            Slot::Lane(session) => Some(session.lane_cycle_limit()),
            Slot::Done(_) => None,
        })
        .collect();
    limits.sort_unstable();
    limits.dedup();
    for limit in limits {
        let mut total_lanes = 0usize;
        let mut groups: Vec<LaneGroup<'_>> = Vec::new();
        for slot in slots.iter_mut() {
            if let Slot::Lane(session) = slot {
                if session.lane_cycle_limit() == limit {
                    total_lanes += session.cores.len();
                    groups.push(LaneGroup {
                        env: &mut session.backend,
                        cores: session.cores.as_mut_slice(),
                    });
                }
            }
        }
        let exec = AnyExec::for_width(total_lanes.min(lane_cap()));
        let width = run_lanes(&mut groups, exec, limit) as u64;
        drop(groups);
        for slot in slots.iter_mut() {
            if let Slot::Lane(session) = slot {
                if session.lane_cycle_limit() == limit {
                    session.lane_width_used = width.max(1);
                }
            }
        }
    }

    // Phase 3: per-session outcome triage and finalization, in order.
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(r) => r,
            Slot::Lane(mut session) => match session.after_lane_run() {
                Ok(()) => session.finalize(),
                Err(e) => Err(e),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBundle;
    use assasin_kernels::{query, scan, stat};

    fn make_ssd(engine: EngineKind) -> Ssd {
        Ssd::new(SsdConfig::small_for_tests(engine))
    }

    fn scan_bundle() -> KernelBundle {
        KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program)
    }

    #[test]
    fn load_and_plain_read_roundtrip() {
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let lpas = ssd.load_object(0, &data).unwrap();
        assert_eq!(lpas.len(), 20_000usize.div_ceil(4096));
        let r = ssd.read_lpas(&lpas, data.len() as u64).unwrap();
        assert_eq!(r.data, data);
        assert!(!r.elapsed.is_zero());
        assert!(r.throughput_bps() > 0.0);
    }

    #[test]
    fn scomp_scan_all_engines_complete() {
        let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 241) as u8).collect();
        for engine in EngineKind::ALL {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let req = ScompRequest::new(scan_bundle(), vec![lpas])
                .with_stream_bytes(vec![data.len() as u64]);
            let r = ssd.scomp(&req).expect("scomp completes");
            assert_eq!(r.bytes_in, data.len() as u64, "engine {engine:?}");
            assert!(
                r.throughput_gbps() > 0.05,
                "engine {engine:?}: {}",
                r.throughput_gbps()
            );
        }
    }

    // Regression tests for the three former `.expect()` panic sites on
    // the scomp request path (mem staging / mem finalize / write-path
    // state): each now yields a typed `SsdError::Invariant` so a
    // long-lived server fails the request instead of aborting.

    #[test]
    fn detached_window_is_a_typed_error_not_a_panic() {
        match engine_window(None::<&DramWindow>, 3, "mem staging") {
            Err(SsdError::Invariant(m)) => {
                assert!(m.contains("engine 3") && m.contains("mem staging"), "{m}")
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
        let w = DramWindow::new(64, 32);
        assert!(engine_window(Some(&w), 0, "mem finalize").is_ok());
    }

    #[test]
    fn failed_write_path_program_is_a_typed_error_not_a_panic() {
        // An output region running past the exported capacity used to hit
        // `.expect("write-path region stays within exported capacity")`
        // inside the drain; the failure is now held by the shared plane
        // and returned after the round.
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let page = ssd.cfg.geometry.page_bytes;
        let beyond = ssd.ftl.exported_pages();
        let mut shared = SharedPlane {
            flash: &mut ssd.flash,
            ftl: &mut ssd.ftl,
            sink: Sink::Flash(FlashOut {
                next: vec![beyond],
                lpas: vec![Vec::new()],
                fill: vec![Vec::new()],
                prog_done: vec![SimTime::ZERO],
                page_bytes: page,
            }),
            dram: ssd.dram.clone(),
            pcie: &mut ssd.pcie,
            outputs: vec![Vec::new()],
            out_done: vec![SimTime::ZERO],
            pcie_latency: SimDur::ZERO,
            failure: None,
        };
        shared.drain(0, &vec![7u8; page as usize + 1], SimTime::ZERO);
        match shared.take_failure() {
            Err(SsdError::Ftl(assasin_ftl::FtlError::OutOfCapacity(lpa))) => {
                assert_eq!(lpa, Lpa(beyond))
            }
            other => panic!("expected an FTL capacity error, got {other:?}"),
        }
        assert_eq!(shared.take_failure(), Ok(()), "reported once");
    }

    #[test]
    fn hostile_output_cursor_fails_the_request_not_the_process() {
        use assasin_isa::Assembler;
        // A Mem-style kernel that scribbles the S5 output cursor far past
        // its DRAM window before halting. Extraction used to slice the
        // window with the program-controlled length and panic; it must
        // now surface a typed error and leave the device usable.
        let mut ssd = make_ssd(EngineKind::Baseline);
        let data: Vec<u8> = vec![7u8; 64 * 1024];
        let lpas = ssd.load_object(0, &data).unwrap();
        let hostile = KernelBundle::new("hostile-cursor", 64, 1.0, |_| {
            let mut asm = Assembler::with_name("hostile-cursor");
            asm.li(Reg::S5, 0x7FFF_0000);
            asm.halt();
            asm.finish().expect("hostile kernel assembles")
        });
        let req = ScompRequest::new(hostile, vec![lpas.clone()])
            .with_stream_bytes(vec![data.len() as u64]);
        match ssd.scomp(&req) {
            Err(SsdError::Invariant(m)) => assert!(m.contains("output cursor"), "{m}"),
            other => panic!("expected Invariant, got {other:?}"),
        }
        // The device degrades instead of dying: a well-behaved request
        // on the same device still completes.
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        let r = ssd.scomp(&req).expect("device survives a hostile request");
        assert_eq!(r.bytes_in, data.len() as u64);
    }

    #[test]
    fn exhausted_round_budget_reports_stuck_diagnostics() {
        let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
        // A 256 KiB scan needs many epochs; a one-round budget cannot.
        cfg.max_rounds = 1;
        let mut ssd = Ssd::new(cfg);
        let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 241) as u8).collect();
        let lpas = ssd.load_object(0, &data).unwrap();
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        match ssd.scomp(&req) {
            Err(SsdError::Stuck(msg)) => {
                assert!(msg.contains("co-sim rounds"), "{msg}");
                assert!(msg.contains("core 0 pc="), "{msg}");
                assert!(msg.contains("backend event"), "{msg}");
            }
            other => panic!("expected Stuck, got {other:?}"),
        }
    }

    #[test]
    fn scomp_filter_output_matches_golden_across_engines() {
        let p = query::FilterParams {
            tuple_words: 12,
            pred_word: 7,
            lo: 100,
            hi: 600,
        };
        let data: Vec<u8> = (0..4096u32)
            .flat_map(|i| {
                (0..12u32).flat_map(move |w| (i.wrapping_mul(w + 3) % 1000).to_le_bytes())
            })
            .collect();
        let expect = query::filter_golden(&data, p);
        for engine in [
            EngineKind::Baseline,
            EngineKind::Prefetch,
            EngineKind::AssasinSp,
            EngineKind::AssasinSb,
            EngineKind::AssasinSbCache,
            EngineKind::Udp,
        ] {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let bundle = KernelBundle::new("filter", 48, 1.0, move |s| query::filter_program(s, p));
            let req =
                ScompRequest::new(bundle, vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
            let r = ssd.scomp(&req).expect("scomp completes");
            assert_eq!(r.concat_output(), expect, "engine {engine:?}");
            assert!(r.bytes_out < r.bytes_in, "filter reduces data");
        }
    }

    #[test]
    fn assasin_bypasses_dram_baseline_does_not() {
        let data = vec![7u8; 512 * 1024];
        let run = |engine| {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let req = ScompRequest::new(scan_bundle(), vec![lpas])
                .with_stream_bytes(vec![data.len() as u64]);
            ssd.scomp(&req).unwrap()
        };
        let base = run(EngineKind::Baseline);
        let sb = run(EngineKind::AssasinSb);
        assert!(
            base.dram_per_input_byte() > 1.5,
            "baseline stages + reads: {}",
            base.dram_per_input_byte()
        );
        assert!(
            sb.dram_per_input_byte() < 0.1,
            "assasin bypasses DRAM: {}",
            sb.dram_per_input_byte()
        );
        assert!(sb.throughput_bps() > base.throughput_bps());
    }

    #[test]
    fn stat_result_is_functionally_correct_via_stream() {
        // stat keeps its accumulator in a register; at SSD level we check
        // the run completes and streams every byte.
        let data: Vec<u8> = (0..64 * 1024u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let lpas = ssd.load_object(0, &data[..64 * 1024]).unwrap();
        let bundle = KernelBundle::new("stat", stat::TUPLE_BYTES, 0.0, stat::program);
        let req = ScompRequest::new(bundle, vec![lpas]).with_stream_bytes(vec![64 * 1024]);
        let r = ssd.scomp(&req).unwrap();
        assert_eq!(r.bytes_in, 64 * 1024);
        assert_eq!(r.bytes_out, 0);
    }

    #[test]
    fn back_to_back_requests_are_independent() {
        // quiesce() must give every request a fresh t=0; results and
        // timing must not depend on prior requests.
        let data = vec![3u8; 256 * 1024];
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let lpas = ssd.load_object(0, &data).unwrap();
        let run = |ssd: &mut Ssd, lpas: &[assasin_ftl::Lpa]| {
            let req = ScompRequest::new(scan_bundle(), vec![lpas.to_vec()])
                .with_stream_bytes(vec![256 * 1024]);
            ssd.scomp(&req).unwrap()
        };
        let a = run(&mut ssd, &lpas);
        let b = run(&mut ssd, &lpas);
        assert_eq!(a.elapsed, b.elapsed, "requests see a quiet device");
        assert_eq!(a.bytes_in, b.bytes_in);
    }

    #[test]
    fn per_core_reports_are_consistent() {
        let data = vec![7u8; 512 * 1024];
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let lpas = ssd.load_object(0, &data).unwrap();
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        let r = ssd.scomp(&req).unwrap();
        assert_eq!(r.per_core.len(), ssd.config().n_cores);
        let total_in: u64 = r.per_core.iter().map(|c| c.bytes_in).sum();
        assert_eq!(total_in, r.bytes_in, "per-core bytes sum to the total");
        for (i, c) in r.per_core.iter().enumerate() {
            assert!(c.utilization > 0.0 && c.utilization <= 1.0, "core {i}");
            assert!(c.cycles > 0, "core {i}");
            assert!(c.breakdown.total() >= c.cycles, "core {i} breakdown");
            assert!(c.mix.total > 0, "core {i} retired instructions");
        }
    }

    #[test]
    fn channel_local_rejects_multi_stream_and_misaligned_objects() {
        let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
        cfg.channel_local = true;
        let mut ssd = Ssd::new(cfg);
        let data = vec![1u8; 64 * 1024];
        let a = ssd.load_object(0, &data).unwrap();
        let b = ssd.load_object(1000, &data).unwrap();
        // Multi-stream: rejected.
        let req = ScompRequest::new(
            KernelBundle::new("raid4", 4, 0.25, assasin_kernels::raid::raid4_program),
            vec![a.clone(), b.clone(), a.clone(), b],
        );
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
        // Page-misaligned objects: rejected (48 does not divide 4096).
        let req = ScompRequest::new(
            KernelBundle::new("odd", 48, 0.0, assasin_kernels::scan::program),
            vec![a],
        );
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
    }

    #[test]
    fn bad_requests_are_rejected() {
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let req = ScompRequest::new(scan_bundle(), vec![]);
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
        let req = ScompRequest::new(scan_bundle(), vec![vec![]]);
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
    }

    /// `scomp` with the phase-1 helper thread forced on or off, whatever
    /// the thread budget holds.
    fn scomp_rounds(ssd: &mut Ssd, req: &ScompRequest, threaded: bool) -> String {
        let run = ssd.scomp_session(req).and_then(|mut session| {
            session.run_rounds(req, threaded)?;
            session.finalize()
        });
        format!("{run:?}")
    }

    #[test]
    fn threaded_rounds_match_serial_rounds() {
        use assasin_kernels::replicate;
        let data: Vec<u8> = (0..96 * 1024).map(|i| (i % 241) as u8).collect();
        for engine in EngineKind::ALL {
            if engine == EngineKind::Udp {
                continue;
            }
            for flash_out in [false, true] {
                let outcomes: Vec<(String, Vec<u8>)> = [false, true]
                    .into_iter()
                    .map(|threaded| {
                        let mut ssd = make_ssd(engine);
                        let lpas = ssd.load_object(0, &data).unwrap();
                        let bundle = KernelBundle::new(
                            "replicate",
                            replicate::TUPLE_BYTES,
                            replicate::COPIES as f64,
                            replicate::program,
                        );
                        let mut req = ScompRequest::new(bundle, vec![lpas])
                            .with_stream_bytes(vec![data.len() as u64]);
                        if flash_out {
                            req = req.with_flash_output(50_000);
                        }
                        let run = scomp_rounds(&mut ssd, &req, threaded);
                        (run, ssd.save_state())
                    })
                    .collect();
                assert!(outcomes[0].0.starts_with("Ok"), "{}", outcomes[0].0);
                assert_eq!(outcomes[0].0, outcomes[1].0, "{engine:?} flash={flash_out}");
                assert!(
                    outcomes[0].1 == outcomes[1].1,
                    "{engine:?} flash={flash_out}: device state diverged"
                );
            }
        }
    }

    /// Deferred DRAM timing needs every instruction that logs no event to
    /// cost at most one epoch, and a program whose results do not depend
    /// on time: Baseline's shipped kernels qualify under both the default
    /// and the test epoch; Prefetch (DCPT) and Sb$ (streams) do not.
    #[test]
    fn only_baseline_cores_defer_their_dram_timing() {
        use assasin_kernels::replicate;
        let data: Vec<u8> = (0..16 * 1024).map(|i| (i % 241) as u8).collect();
        for engine in [
            EngineKind::Baseline,
            EngineKind::Prefetch,
            EngineKind::AssasinSbCache,
        ] {
            for bundle in [
                scan_bundle(),
                KernelBundle::new(
                    "replicate",
                    replicate::TUPLE_BYTES,
                    replicate::COPIES as f64,
                    replicate::program,
                ),
            ] {
                let mut ssd = make_ssd(engine);
                let lpas = ssd.load_object(0, &data).unwrap();
                let req = ScompRequest::new(bundle, vec![lpas])
                    .with_stream_bytes(vec![data.len() as u64]);
                let session = ssd.scomp_session(&req).unwrap();
                for epoch in [session.cfg.epoch, SsdConfig::engine_config(engine).epoch] {
                    for core in &session.cores {
                        assert_eq!(
                            core.can_defer_dram_timing(epoch),
                            engine == EngineKind::Baseline,
                            "{engine:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn write_path_replicate_lands_in_flash() {
        use assasin_kernels::replicate;
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let expect = replicate::golden(&data);
        for engine in [
            EngineKind::AssasinSb,
            EngineKind::AssasinSp,
            EngineKind::Baseline,
        ] {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let bundle = KernelBundle::new(
                "replicate",
                replicate::TUPLE_BYTES,
                replicate::COPIES as f64,
                replicate::program,
            );
            let req = ScompRequest::new(bundle, vec![lpas])
                .with_stream_bytes(vec![data.len() as u64])
                .with_flash_output(50_000);
            let r = ssd.scomp(&req).expect("write-path scomp");
            // The results are durable flash pages, readable afterwards.
            assert!(!r.output_lpas.is_empty(), "{engine:?}");
            let mut stored = Vec::new();
            for (core_lpas, out) in r.output_lpas.iter().zip(&r.outputs) {
                let io = ssd.read_lpas(core_lpas, out.len() as u64).unwrap();
                stored.extend_from_slice(&io.data);
            }
            assert_eq!(stored, expect, "{engine:?}");
            // Write path on ASSASIN: no host traffic, and for the ASSASIN
            // variants no DRAM traffic either.
            if engine.bypasses_dram() {
                assert!(
                    r.dram_per_input_byte() < 0.1,
                    "{engine:?}: {}",
                    r.dram_per_input_byte()
                );
            }
        }
    }

    #[test]
    fn write_path_region_capacity_is_validated() {
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let data = vec![1u8; 8192];
        let lpas = ssd.load_object(0, &data).unwrap();
        let req = ScompRequest::new(scan_bundle(), vec![lpas]).with_flash_output(u64::MAX / 2);
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
    }

    #[test]
    fn multi_stream_raid4_via_ssd() {
        use assasin_kernels::raid;
        let streams: Vec<Vec<u8>> = (0..4usize)
            .map(|s| {
                (0..32 * 1024)
                    .map(|i| ((i * 13 + s * 7) % 256) as u8)
                    .collect()
            })
            .collect();
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let mut all_lpas = Vec::new();
        for (s, data) in streams.iter().enumerate() {
            all_lpas.push(ssd.load_object((s * 1000) as u64, data).unwrap());
        }
        let refs: Vec<&[u8]> = streams.iter().map(|v| v.as_slice()).collect();
        let expect = raid::raid4_golden(&refs);
        let bundle = KernelBundle::new("raid4", 4, 0.25, raid::raid4_program);
        let req = ScompRequest::new(bundle, all_lpas).with_stream_bytes(vec![32 * 1024; 4]);
        let r = ssd.scomp(&req).unwrap();
        assert_eq!(r.concat_output(), expect);
    }
}
