//! `offload_rw`: standalone kernels on one small AssasinSb device, read
//! kernels beside write-path kernels whose outputs go to flash.
//!
//! The device is preconditioned nearly full, so the write-path outputs —
//! each overwriting part of the previous round's at a shifted offset —
//! make the FTL collect garbage (erase blocks, relocate valid pages)
//! while the kernels run. Every output is read back with `read_lpas` and
//! compared with the kernel's golden model.
//!
//! `stat` and `scan` keep their results in a register, which `scomp`
//! does not report, so the read kernels here are the library kernels'
//! loop bodies plus an end-of-stream test that emits the accumulator
//! once per engine; the engines' partial sums add up to the golden sum.

use crate::tally::{Checks, Counts, DeviceMark, Digest, Work};
use crate::trace;
use crate::{Steps, Workload};
use assasin_bench::bundles;
use assasin_core::EngineKind;
use assasin_flash::FlashGeometry;
use assasin_ftl::Lpa;
use assasin_isa::{Assembler, Program, Reg};
use assasin_kernels::{aes, compress, replicate, scan, stat, AccessStyle};
use assasin_serve::SplitMix64;
use assasin_ssd::{KernelBundle, ScompRequest, ScompResult, Ssd, SsdConfig, SsdImage};

/// Rounds of the kernel mix per repeat.
const ROUNDS: u64 = 4;
/// Input sizes.
const STAT_BYTES: usize = 1 << 20;
const SCAN_BYTES: usize = 1 << 20;
const AES_BYTES: usize = 96 << 10;
const REPLICATE_BYTES: usize = 512 << 10;
/// Plain bytes per decompression block (one block per engine).
const PLAIN_BLOCK: usize = 48 << 10;

/// A device small enough to fill: 8 channels x 2 chips x 24 blocks of
/// 64 4-KiB pages (96 MiB).
fn config() -> SsdConfig {
    let mut cfg = SsdConfig::engine_config(EngineKind::AssasinSb);
    cfg.geometry = FlashGeometry {
        channels: 8,
        chips_per_channel: 2,
        planes_per_chip: 1,
        blocks_per_plane: 24,
        pages_per_block: 64,
        page_bytes: 4096,
    };
    cfg
}

fn random_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(n + 8);
    while v.len() < n {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(n);
    v
}

/// Text-like bytes: words drawn from a small vocabulary, so the LZ
/// compressor finds matches inside its window.
fn text(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    const WORDS: [&str; 16] = [
        "stream",
        "storage",
        "flash",
        "engine",
        "crossbar",
        "buffer",
        "query",
        "filter",
        "select",
        "parse",
        "page",
        "channel",
        "core",
        "scratchpad",
        "offload",
        "ssd",
    ];
    let mut v = Vec::with_capacity(n + 16);
    while v.len() < n {
        let r = rng.next_u64();
        v.extend_from_slice(WORDS[(r % 16) as usize].as_bytes());
        v.push(if r >> 60 == 0 { b'\n' } else { b' ' });
    }
    v.truncate(n);
    v
}

/// Pads a compressed block to exactly `len` bytes with literal runs of
/// spaces (every piece is a token plus at least one literal).
fn pad_compressed(mut block: Vec<u8>, len: usize) -> Vec<u8> {
    assert!(block.len() + 2 <= len, "room for at least one literal run");
    while block.len() < len {
        let room = len - block.len();
        let mut lit = (room - 1).min(128);
        if room - 1 - lit == 1 {
            lit -= 1; // never leave a single byte, which no run fits
        }
        block.push((lit - 1) as u8);
        block.extend(std::iter::repeat_n(b' ', lit));
    }
    block
}

/// The `stat` (4 words a tuple) or `scan` (2 words a tuple) loop with an
/// end-of-stream exit that emits the running sum. Streambuffer style
/// only, which is what AssasinSb runs.
fn checked_sum_program(name: &str, words: u32, style: AccessStyle) -> Program {
    assert_eq!(style, AccessStyle::Stream, "AssasinSb runs stream programs");
    let mut asm = Assembler::with_name(format!("{name}-checked"));
    let top = asm.label();
    let done = asm.label();
    asm.bind(top);
    asm.stream_eos(Reg::T5, 0);
    asm.bnez(Reg::T5, done);
    for _ in 0..words {
        asm.stream_load(Reg::T0, 0, 4);
        asm.add(Reg::T4, Reg::T4, Reg::T0);
    }
    asm.j(top);
    asm.bind(done);
    asm.stream_store(0, 4, Reg::T4);
    asm.halt();
    asm.finish().expect("checked sum kernel assembles")
}

fn stat_bundle() -> KernelBundle {
    KernelBundle::new("stat", stat::TUPLE_BYTES, 1.0 / 1024.0, |s| {
        checked_sum_program("stat", 4, s)
    })
}

fn scan_bundle() -> KernelBundle {
    KernelBundle::new("scan", scan::TUPLE_BYTES, 1.0 / 1024.0, |s| {
        checked_sum_program("scan", 2, s)
    })
}

/// The kernels of one round, in issue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Stat,
    Aes,
    Scan,
    Replicate,
    Decompress,
}

const MIX: [Kernel; 5] = [
    Kernel::Stat,
    Kernel::Aes,
    Kernel::Scan,
    Kernel::Replicate,
    Kernel::Decompress,
];

/// An input object on the device.
struct Input {
    lpas: Vec<Lpa>,
    bytes: u64,
    /// Write-path output zone: first LPA, length in pages, and the shift
    /// between rounds.
    zone: u64,
    zone_pages: u64,
    shift: u64,
}

/// What one kernel call produced.
struct Outcome {
    kernel: Kernel,
    result: Result<ScompResult, String>,
    /// Write path: each engine's output read back from flash.
    readback: Vec<Result<Vec<u8>, String>>,
}

/// Output bound per input byte of the decompression kernel.
fn expansion(blocks: &[Vec<u8>]) -> f64 {
    let packed: usize = blocks.iter().map(Vec::len).sum();
    (PLAIN_BLOCK * blocks.len()) as f64 / packed as f64 + 1.0
}

/// The `offload_rw` workload state.
pub struct OffloadRw {
    image: SsdImage,
    inputs: Vec<(Kernel, Input)>,
    data: Vec<(Kernel, Vec<u8>)>,
    dec_blocks: Vec<Vec<u8>>,
    expansion: f64,
    input_bytes: u64,
    outcomes: Vec<Outcome>,
    work: Work,
}

impl OffloadRw {
    fn request(&self, kernel: Kernel, round: u64) -> ScompRequest {
        let (_, input) = self
            .inputs
            .iter()
            .find(|(k, _)| *k == kernel)
            .expect("every kernel has an input");
        let bundle = match kernel {
            Kernel::Stat => stat_bundle(),
            Kernel::Scan => scan_bundle(),
            Kernel::Aes => bundles::aes_bundle(),
            Kernel::Replicate => bundles::replicate_bundle(),
            Kernel::Decompress => bundles::decompress_bundle(self.expansion),
        };
        let req = ScompRequest::new(bundle, vec![input.lpas.clone()])
            .with_stream_bytes(vec![input.bytes]);
        match kernel {
            Kernel::Stat | Kernel::Scan => req,
            _ => req.with_flash_output(input.zone + round * input.shift),
        }
    }
}

impl Workload for OffloadRw {
    fn setup(seed: u64) -> Result<Self, String> {
        let cfg = config();
        let (data, dec_blocks) = trace::span("workloads.gen", || {
            let mut rng = SplitMix64::new(seed);
            let packed: Vec<Vec<u8>> = (0..cfg.n_cores)
                .map(|_| compress::compress(&text(&mut rng, PLAIN_BLOCK)))
                .collect();
            let block = (packed.iter().map(Vec::len).max().unwrap_or(0) + 2).next_multiple_of(16);
            let dec_blocks: Vec<Vec<u8>> = packed
                .into_iter()
                .map(|b| pad_compressed(b, block))
                .collect();
            let data = vec![
                (Kernel::Stat, random_bytes(&mut rng, STAT_BYTES)),
                (Kernel::Aes, random_bytes(&mut rng, AES_BYTES)),
                (Kernel::Scan, random_bytes(&mut rng, SCAN_BYTES)),
                (Kernel::Replicate, random_bytes(&mut rng, REPLICATE_BYTES)),
                (Kernel::Decompress, dec_blocks.concat()),
            ];
            (data, dec_blocks)
        });
        let input_bytes = data.iter().map(|(_, d)| d.len() as u64).sum();
        let expansion = expansion(&dec_blocks);
        let page = cfg.geometry.page_bytes as u64;
        let mut ssd = Ssd::new(cfg);
        let mut inputs = Vec::new();
        trace::span("ssd.load", || -> Result<(), String> {
            // Inputs first, each write-path kernel's output zone right
            // after its input (pre-written, so the repeats overwrite), then
            // cold data filling the rest of the exported capacity.
            let mut next = 0u64;
            for (kernel, bytes) in &data {
                let lpas = ssd
                    .load_object(next, bytes)
                    .map_err(|e| format!("load {kernel:?} input: {e}"))?;
                next += lpas.len() as u64;
                let out_per_in = match kernel {
                    Kernel::Stat | Kernel::Scan => None,
                    Kernel::Aes => Some(1.0),
                    Kernel::Replicate => Some(replicate::COPIES as f64),
                    Kernel::Decompress => Some(expansion),
                };
                let (zone, zone_pages, shift) = match out_per_in {
                    None => (0, 0, 0),
                    Some(ratio) => {
                        // `Ssd::scomp`'s per-engine output regions.
                        let per_engine = ((bytes.len() as f64 * ratio).ceil() as u64)
                            .div_ceil(page)
                            .div_ceil(cfg.n_cores as u64)
                            + 2;
                        let region = per_engine * cfg.n_cores as u64;
                        let shift = region / 3;
                        let zone_pages = region + ROUNDS * shift;
                        ssd.load_object(next, &vec![0xA5; (zone_pages * page) as usize])
                            .map_err(|e| format!("pre-write {kernel:?} zone: {e}"))?;
                        next += zone_pages;
                        (next - zone_pages, zone_pages, shift)
                    }
                };
                inputs.push((
                    *kernel,
                    Input {
                        lpas,
                        bytes: bytes.len() as u64,
                        zone,
                        zone_pages,
                        shift,
                    },
                ));
            }
            // The FTL exports all but one block per plane, less 12.5%
            // over-provisioning; fill all of it.
            let planes = cfg.geometry.channels as u64
                * cfg.geometry.chips_per_channel as u64
                * cfg.geometry.planes_per_chip as u64;
            let exported =
                (cfg.geometry.total_pages() - planes * cfg.geometry.pages_per_block as u64) * 7 / 8;
            let cold_pages = exported
                .checked_sub(next)
                .ok_or("inputs and zones overfill the device")?;
            ssd.load_object(next, &vec![0x5A; (cold_pages * page) as usize])
                .map_err(|e| format!("cold fill: {e}"))?;
            // Rewrite the zones until garbage collection has erased a
            // block per plane: the free pool then sits at the low-water
            // mark and every repeat collects garbage from its first write.
            for pass in 0u8.. {
                if ssd.ftl_stats().erases >= planes {
                    break;
                }
                if pass == 64 {
                    return Err("preconditioning never started garbage collection".into());
                }
                for (_, input) in &inputs {
                    if input.shift > 0 {
                        ssd.load_object(
                            input.zone,
                            &vec![pass; (input.zone_pages * page) as usize],
                        )
                        .map_err(|e| format!("zone rewrite: {e}"))?;
                    }
                }
            }
            Ok(())
        })?;
        Ok(OffloadRw {
            image: trace::span("snap.image", || ssd.into_image()),
            inputs,
            data,
            dec_blocks,
            expansion,
            input_bytes,
            outcomes: Vec::new(),
            work: Work::default(),
        })
    }

    /// Each kernel's golden output.
    type Expected = Vec<(Kernel, Vec<u8>)>;

    fn reference(&self) -> Vec<(Kernel, Vec<u8>)> {
        self.data
            .iter()
            .map(|(kernel, d)| {
                let golden = match kernel {
                    Kernel::Stat => stat::golden(d).to_le_bytes().to_vec(),
                    Kernel::Scan => scan::golden(d).to_le_bytes().to_vec(),
                    Kernel::Aes => aes::golden(&bundles::AES_KEY, d),
                    Kernel::Replicate => replicate::golden(d),
                    Kernel::Decompress => self
                        .dec_blocks
                        .iter()
                        .flat_map(|b| compress::decompress_golden(b))
                        .collect(),
                };
                (*kernel, golden)
            })
            .collect()
    }

    fn run(&mut self, steps: &mut Steps) {
        let mut ssd = steps.time(|| trace::span("snap.fork", || self.image.fork(config())));
        let before = DeviceMark::of(&ssd);
        self.outcomes.clear();
        self.work = Work::default();
        for round in 0..ROUNDS {
            for (k, kernel) in MIX.into_iter().enumerate() {
                trace::set_request(round * MIX.len() as u64 + k as u64);
                let outcome = steps.time(|| {
                    let req = self.request(kernel, round);
                    let result =
                        trace::span("ssd.scomp", || ssd.scomp(&req)).map_err(|e| e.to_string());
                    let readback = match &result {
                        Ok(r) => r
                            .output_lpas
                            .iter()
                            .zip(&r.per_core)
                            .filter(|(lpas, _)| !lpas.is_empty())
                            .map(|(lpas, core)| {
                                let io =
                                    trace::span("ssd.read", || ssd.read_lpas(lpas, core.bytes_out));
                                io.map(|io| {
                                    self.work.read(&io);
                                    io.data
                                })
                                .map_err(|e| e.to_string())
                            })
                            .collect(),
                        Err(_) => Vec::new(),
                    };
                    Outcome {
                        kernel,
                        result,
                        readback,
                    }
                });
                if let Ok(r) = &outcome.result {
                    self.work.scomp(r);
                }
                self.outcomes.push(outcome);
            }
        }
        self.work.device_delta(&ssd, &before);
    }

    fn finish(
        &mut self,
        expected: &Vec<(Kernel, Vec<u8>)>,
        counts: &mut Counts,
        digest: &mut Digest,
        checks: &mut Checks,
    ) {
        for o in &self.outcomes {
            let expected = &expected
                .iter()
                .find(|(k, _)| *k == o.kernel)
                .expect("every kernel has a golden")
                .1;
            let r = match &o.result {
                Ok(r) => r,
                Err(e) => {
                    checks.record(false, || format!("{:?}: {e}", o.kernel));
                    continue;
                }
            };
            digest.scomp(r);
            let got: Result<Vec<u8>, String> = match o.kernel {
                Kernel::Stat | Kernel::Scan => Ok(r
                    .outputs
                    .iter()
                    .filter_map(|out| out.get(..4))
                    .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
                    .fold(0u32, u32::wrapping_add)
                    .to_le_bytes()
                    .to_vec()),
                _ => o
                    .readback
                    .iter()
                    .cloned()
                    .collect::<Result<Vec<_>, _>>()
                    .map(|v| v.concat()),
            };
            match got {
                Ok(bytes) => {
                    digest.blob(&bytes);
                    checks.record(&bytes == expected, || {
                        format!("{:?} output differs from its golden model", o.kernel)
                    });
                }
                Err(e) => checks.record(false, || format!("{:?} read-back: {e}", o.kernel)),
            }
        }
        self.work.fill(counts);
        counts.insert("workloads.csv_bytes", self.input_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_blocks_have_the_exact_length_and_decode() {
        let mut rng = SplitMix64::new(3);
        for extra in [2usize, 3, 129, 130, 131, 300] {
            let packed = compress::compress(&text(&mut rng, 4096));
            let len = packed.len() + extra;
            let padded = pad_compressed(packed.clone(), len);
            assert_eq!(padded.len(), len);
            let plain = compress::decompress_golden(&packed);
            let out = compress::decompress_golden(&padded);
            assert_eq!(&out[..plain.len()], &plain[..]);
            assert!(out[plain.len()..].iter().all(|&b| b == b' '));
        }
    }
}
