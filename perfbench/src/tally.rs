//! What one iteration of a workload simulated: a digest of every
//! simulated observable, per-layer work counts, and output checks.

use assasin_flash::ReliabilityStats;
use assasin_ftl::FtlStats;
use assasin_sim::SimDur;
use assasin_ssd::{PlainIoResult, ScompResult, Ssd};
use std::collections::BTreeMap;

/// FNV-1a over a canonical byte encoding of simulated observables.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a length-prefixed byte string.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }

    /// Mixes an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a float by its bit pattern (exact, not rounded).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes a simulated duration.
    pub fn dur(&mut self, d: SimDur) {
        self.u64(d.as_ps());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Mixes everything an `scomp` result reports.
    pub fn scomp(&mut self, r: &ScompResult) {
        self.dur(r.elapsed);
        self.u64(r.bytes_in);
        self.u64(r.bytes_out);
        self.u64(r.dram_traffic);
        for o in &r.outputs {
            self.blob(o);
        }
        for c in &r.per_core {
            let b = &c.breakdown;
            for v in [
                c.cycles,
                b.busy,
                b.stall_l1,
                b.stall_l2,
                b.stall_dram,
                b.stall_scratchpad,
                b.stall_stream,
                b.stall_swap,
                c.mix.total,
                c.mix.loads,
                c.mix.stores,
                c.mix.branches,
                c.mix.stream_loads,
                c.mix.stream_stores,
                c.bytes_in,
                c.bytes_out,
            ] {
                self.u64(v);
            }
            self.f64(c.utilization);
        }
        for lpas in &r.output_lpas {
            self.u64(lpas.len() as u64);
            for l in lpas {
                self.u64(l.0);
            }
        }
        for (&bytes, &busy) in r.channel_bytes.iter().zip(&r.channel_busy) {
            self.u64(bytes);
            self.dur(busy);
        }
    }
}

/// Named per-layer counts of one iteration (simulated quantities only,
/// so they repeat exactly).
pub type Counts = BTreeMap<&'static str, f64>;

/// Output checks of one iteration.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation whose output was checked.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// Core, memory, flash and FTL work summed over a set of device calls.
#[derive(Debug, Default, Clone)]
pub struct Work {
    /// `scomp` calls.
    pub scomp_calls: u64,
    /// Plain reads (`read_lpas`).
    pub read_calls: u64,
    /// Instructions retired.
    pub instr: u64,
    /// Engine cycles.
    pub cycles: u64,
    /// Cycles retiring instructions.
    pub busy: u64,
    /// Stall cycles on L1, L2, DRAM, scratchpad, stream data, buffer swap.
    pub stall_l1: u64,
    /// See `stall_l1`.
    pub stall_l2: u64,
    /// See `stall_l1`.
    pub stall_dram: u64,
    /// See `stall_l1`.
    pub stall_scratchpad: u64,
    /// See `stall_l1`.
    pub stall_stream: u64,
    /// See `stall_l1`.
    pub stall_swap: u64,
    /// Sum and count of per-engine utilization.
    pub util_sum: f64,
    /// See `util_sum`.
    pub util_n: u64,
    /// SSD DRAM bus bytes.
    pub dram_bytes: u64,
    /// Bytes read from flash channels.
    pub flash_read_bytes: u64,
    /// Channel busy time, and channels x request span it is a share of.
    pub channel_busy_ps: u64,
    /// See `channel_busy_ps`.
    pub channel_span_ps: u64,
    /// Simulated device time of every call.
    pub device_ps: u64,
    /// Flash page senses, read retries, and FTL activity (deltas).
    pub page_reads: u64,
    /// See `page_reads`.
    pub read_retries: u64,
    /// Pages written for the host.
    pub host_writes: u64,
    /// Pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Page size of the device, for programmed bytes.
    pub page_bytes: u64,
}

impl Work {
    /// Adds one `scomp` result.
    pub fn scomp(&mut self, r: &ScompResult) {
        self.scomp_calls += 1;
        for c in &r.per_core {
            let b = &c.breakdown;
            self.instr += c.mix.total;
            self.cycles += c.cycles;
            self.busy += b.busy;
            self.stall_l1 += b.stall_l1;
            self.stall_l2 += b.stall_l2;
            self.stall_dram += b.stall_dram;
            self.stall_scratchpad += b.stall_scratchpad;
            self.stall_stream += b.stall_stream;
            self.stall_swap += b.stall_swap;
            self.util_sum += c.utilization;
            self.util_n += 1;
        }
        self.dram_bytes += r.dram_traffic;
        self.flash_read_bytes += r.channel_bytes.iter().sum::<u64>();
        self.channel_busy_ps += r.channel_busy.iter().map(|d| d.as_ps()).sum::<u64>();
        self.channel_span_ps += r.channel_busy.len() as u64 * r.elapsed.as_ps();
        self.device_ps += r.elapsed.as_ps();
    }

    /// Adds one plain read.
    pub fn read(&mut self, r: &PlainIoResult) {
        self.read_calls += 1;
        self.flash_read_bytes += r.data.len() as u64;
        self.device_ps += r.elapsed.as_ps();
    }

    /// Adds the flash and FTL activity of `ssd` since `before`.
    pub fn device_delta(&mut self, ssd: &Ssd, before: &DeviceMark) {
        let now = DeviceMark::of(ssd);
        self.page_reads += now.rel.page_reads - before.rel.page_reads;
        self.read_retries += now.rel.read_retries - before.rel.read_retries;
        self.host_writes += now.ftl.host_writes - before.ftl.host_writes;
        self.gc_relocations += now.ftl.gc_relocations - before.ftl.gc_relocations;
        self.erases += now.ftl.erases - before.ftl.erases;
        self.page_bytes = ssd.config().geometry.page_bytes as u64;
    }

    /// Flash bytes simulated: bytes read plus pages programmed.
    pub fn flash_bytes(&self) -> u64 {
        self.flash_read_bytes + (self.host_writes + self.gc_relocations) * self.page_bytes
    }

    /// Writes the core, mem, flash and FTL counts.
    pub fn fill(&self, c: &mut Counts) {
        let f = |v: u64| v as f64;
        c.insert("ssd.scomp_calls", f(self.scomp_calls));
        c.insert("ssd.read_calls", f(self.read_calls));
        c.insert("core.instr", f(self.instr));
        c.insert("core.cycles", f(self.cycles));
        c.insert("core.busy", f(self.busy));
        c.insert("core.stall_stream", f(self.stall_stream));
        c.insert("core.stall_swap", f(self.stall_swap));
        c.insert("core.util", ratio(self.util_sum, self.util_n as f64));
        c.insert("mem.stall_l1", f(self.stall_l1));
        c.insert("mem.stall_l2", f(self.stall_l2));
        c.insert("mem.stall_dram", f(self.stall_dram));
        c.insert("mem.stall_scratchpad", f(self.stall_scratchpad));
        c.insert("mem.dram_bytes", f(self.dram_bytes));
        c.insert("flash.page_reads", f(self.page_reads));
        c.insert("flash.channel_bytes", f(self.flash_read_bytes));
        c.insert(
            "flash.channel_util",
            ratio(self.channel_busy_ps as f64, self.channel_span_ps as f64),
        );
        c.insert("flash.read_retries", f(self.read_retries));
        c.insert("flash.bytes", f(self.flash_bytes()));
        c.insert("ftl.host_writes", f(self.host_writes));
        c.insert("ftl.gc_relocations", f(self.gc_relocations));
        c.insert("ftl.erases", f(self.erases));
        c.insert(
            "ftl.write_amp",
            ratio(
                f(self.host_writes + self.gc_relocations),
                f(self.host_writes),
            ),
        );
        c.insert("sim.device_ms", self.device_ps as f64 * 1e-9);
        c.insert("sim.ipc", ratio(f(self.instr), f(self.cycles)));
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A device's cumulative flash and FTL counters at one moment.
#[derive(Debug, Clone)]
pub struct DeviceMark {
    rel: ReliabilityStats,
    ftl: FtlStats,
}

impl DeviceMark {
    /// Reads the counters of `ssd`.
    pub fn of(ssd: &Ssd) -> Self {
        DeviceMark {
            rel: ssd.reliability(),
            ftl: ssd.ftl_stats(),
        }
    }
}
