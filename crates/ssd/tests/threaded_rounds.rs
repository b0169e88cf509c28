//! Property test pinning the two-phase co-simulation round to its serial
//! form.
//!
//! With a helper thread leased, each round first runs the DRAM-free cores
//! (AssasinSb, AssasinSp) in parallel up to their first shared-backend
//! call, and the Baseline cores ahead of their DRAM-bus timing; then it
//! finishes every core in order on the calling thread, replaying the
//! Baseline cores' bus transfers (DESIGN.md §11). Without one, the round
//! is the serial loop. Both must give the same `ScompResult`, the same
//! device state afterwards, and the same error text when a request wedges
//! or runs out of rounds — for random read-path and write-path kernels
//! over 1–4 streams, on AssasinSb, AssasinSp and Baseline, and for
//! Baseline kernels that straddle cache lines, reach pages before they are
//! staged, write back dirty lines, or read the clock or a stream (which
//! keeps their rounds serial).
//!
//! The thread cap comes from `assasin_parallel::with_max_threads`; the
//! helper itself from the process-wide budget, so the tests of this file
//! run one at a time to leave it free (`RAYON_NUM_THREADS=1` empties it,
//! and both arms are then serial).

use assasin_core::EngineKind;
use assasin_isa::{csr, Assembler, Program, Reg};
use assasin_kernels::{AccessStyle, KernelIo};
use assasin_parallel::with_max_threads;
use assasin_ssd::{KernelBundle, ScompRequest, Ssd, SsdConfig};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

const ENGINES: [EngineKind; 3] = [
    EngineKind::AssasinSb,
    EngineKind::AssasinSp,
    EngineKind::Baseline,
];

/// One test at a time, so the helper thread the 2-thread arm asks for is
/// not held by a concurrently running test of this file.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt) >> 8) as u8)
        .collect()
}

/// A randomized kernel over `n_in` streams of 4-byte tuples: combine one
/// word of each stream, spin `work` ALU ops, emit the result `emits`
/// times (0 = a pure read-path reduction). With `wedge_at`, the
/// iteration of that number loads from an unmapped address.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n_in: u32,
    emits: u32,
    work: u32,
    xor: bool,
    wedge_at: Option<u32>,
    twist: Twist,
}

/// Variations on a Baseline (DRAM-window) kernel.
#[derive(Debug, Clone, Copy, Default)]
struct Twist {
    /// Also load the word two bytes into each tuple of stream 0, which
    /// straddles a cache line every 16th tuple.
    straddle: bool,
    /// Mix the `CYCLE` CSR into the result, which makes the core's timing
    /// visible, so its rounds must run serially.
    cycle_csr: bool,
    /// Ask stream 0 how many bytes it holds: a stream instruction, so the
    /// rounds run serially.
    stream_op: bool,
}

fn program(shape: Shape, style: AccessStyle) -> Program {
    let io = KernelIo::new(style, shape.n_in, 4);
    let mut asm = Assembler::with_name("random-kernel");
    let ctx = io.begin(&mut asm);
    io.load(&mut asm, Reg::T0, 0, 0, 4, false);
    for sid in 1..shape.n_in {
        io.load(&mut asm, Reg::T1, sid, 0, 4, false);
        if shape.xor {
            asm.xor(Reg::T0, Reg::T0, Reg::T1);
        } else {
            asm.add(Reg::T0, Reg::T0, Reg::T1);
        }
    }
    if shape.twist.straddle {
        io.load(&mut asm, Reg::T1, 0, 2, 4, false);
        asm.add(Reg::T0, Reg::T0, Reg::T1);
    }
    if shape.twist.cycle_csr {
        asm.csrr(Reg::T2, csr::CYCLE);
        asm.xor(Reg::T0, Reg::T0, Reg::T2);
    }
    if shape.twist.stream_op {
        asm.stream_avail(Reg::T2, 0);
        asm.add(Reg::T0, Reg::T0, Reg::T2);
    }
    for _ in 0..shape.work {
        asm.slli(Reg::T2, Reg::T0, 3);
        asm.add(Reg::T0, Reg::T0, Reg::T2);
    }
    asm.add(Reg::A3, Reg::A3, Reg::T0);
    for _ in 0..shape.emits {
        io.emit(&mut asm, Reg::T0, 4);
    }
    if let Some(at) = shape.wedge_at {
        let fine = asm.label();
        asm.addi(Reg::T6, Reg::T6, 1);
        asm.li(Reg::T5, at as i64);
        asm.bne(Reg::T6, Reg::T5, fine);
        asm.li(Reg::T4, 0x0FFF_FFF0);
        asm.lw(Reg::T3, Reg::T4, 0);
        asm.bind(fine);
    }
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("random kernel assembles")
}

/// Runs one request on a fresh device at `threads`, returning the outcome
/// (results or error text, in full) and the device's state afterwards.
fn run(
    threads: usize,
    engine: EngineKind,
    shape: Shape,
    tuples: usize,
    salt: u64,
    flash_out: bool,
    max_rounds: Option<u64>,
) -> (String, Vec<u8>) {
    let mut cfg = SsdConfig::small_for_tests(engine);
    if let Some(rounds) = max_rounds {
        cfg.max_rounds = rounds;
    }
    let mut ssd = Ssd::new(cfg);
    let mut lpa_lists = Vec::new();
    let mut lengths = Vec::new();
    for sid in 0..shape.n_in as u64 {
        let data = pattern(tuples * 4, salt.wrapping_add(sid));
        lpa_lists.push(ssd.load_object(sid * 2048, &data).expect("load"));
        lengths.push(data.len() as u64);
    }
    let bundle = KernelBundle::new(
        "random-kernel",
        4,
        shape.emits as f64 / shape.n_in as f64,
        move |style| program(shape, style),
    );
    let mut req = ScompRequest::new(bundle, lpa_lists).with_stream_bytes(lengths);
    if flash_out {
        req = req.with_flash_output(60_000);
    }
    let outcome = match with_max_threads(threads, || ssd.scomp(&req)) {
        Ok(r) => format!("ok {r:?}"),
        Err(e) => format!("err {e}"),
    };
    (outcome, ssd.save_state())
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (1u32..=4, 0u32..=2, 0u32..6, any::<bool>()).prop_map(|(n_in, emits, work, xor)| Shape {
        n_in,
        emits,
        work,
        xor,
        wedge_at: None,
        twist: Twist::default(),
    })
}

fn baseline_shape_strategy() -> impl Strategy<Value = Shape> {
    (
        shape_strategy(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(shape, straddle, cycle_csr, stream_op)| Shape {
            twist: Twist {
                straddle,
                cycle_csr,
                stream_op,
            },
            ..shape
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn two_threads_match_one(
        engine_idx in 0usize..ENGINES.len(),
        shape in shape_strategy(),
        tuples in 1usize..6000,
        salt in 0u64..1_000_000,
        flash_out in any::<bool>(),
    ) {
        let _one_at_a_time = serial();
        let engine = ENGINES[engine_idx];
        let one = run(1, engine, shape, tuples, salt, flash_out, None);
        let two = run(2, engine, shape, tuples, salt, flash_out, None);
        prop_assert!(one.0.starts_with("ok"), "{}", one.0);
        prop_assert_eq!(&one.0, &two.0, "results diverged");
        prop_assert!(one.1 == two.1, "device state diverged");
    }

    #[test]
    fn wedged_and_stuck_requests_fail_identically(
        engine_idx in 0usize..ENGINES.len(),
        shape in shape_strategy(),
        wedge_at in 1u32..400,
        salt in 0u64..1_000_000,
        flash_out in any::<bool>(),
    ) {
        let _one_at_a_time = serial();
        let engine = ENGINES[engine_idx];
        // Every core has at least `wedge_at` tuples, so each one wedges.
        let tuples = 8 * 400;
        let wedging = Shape { wedge_at: Some(wedge_at), ..shape };
        let one = run(1, engine, wedging, tuples, salt, flash_out, None);
        let two = run(2, engine, wedging, tuples, salt, flash_out, None);
        prop_assert!(one.0.contains("wedged"), "{}", one.0);
        prop_assert_eq!(&one.0, &two.0, "wedge reports diverged");
        prop_assert!(one.1 == two.1, "device state diverged after a wedge");

        let rounds = 1 + salt % 3;
        let one = run(1, engine, shape, tuples, salt, flash_out, Some(rounds));
        let two = run(2, engine, shape, tuples, salt, flash_out, Some(rounds));
        prop_assert!(one.0.contains("co-sim rounds"), "{}", one.0);
        prop_assert_eq!(&one.0, &two.0, "stuck reports diverged");
        prop_assert!(one.1 == two.1, "device state diverged after a stuck request");
    }

    /// Baseline kernels over up to 40 pages a stream: cores reach pages
    /// before the firmware stages them, and up to 80 KiB of output a core
    /// evicts dirty lines from its 32 KiB L1.
    #[test]
    fn baseline_kernels_match_serial(
        shape in baseline_shape_strategy(),
        tuples in 1usize..40_000,
        salt in 0u64..1_000_000,
        flash_out in any::<bool>(),
    ) {
        let _one_at_a_time = serial();
        let one = run(1, EngineKind::Baseline, shape, tuples, salt, flash_out, None);
        let two = run(2, EngineKind::Baseline, shape, tuples, salt, flash_out, None);
        prop_assert!(one.0.starts_with("ok"), "{}", one.0);
        prop_assert_eq!(&one.0, &two.0, "results diverged");
        prop_assert!(one.1 == two.1, "device state diverged");
    }

    /// A Baseline request that wedges late, or runs out of rounds after
    /// many deferred rounds, reports what the serial loop reports.
    #[test]
    fn baseline_wedges_and_stuck_requests_fail_identically(
        shape in baseline_shape_strategy(),
        wedge_at in 1u32..4_000,
        rounds in 1u64..12,
        salt in 0u64..1_000_000,
        flash_out in any::<bool>(),
    ) {
        let _one_at_a_time = serial();
        let tuples = 8 * 4_000;
        let wedging = Shape { wedge_at: Some(wedge_at), ..shape };
        let one = run(1, EngineKind::Baseline, wedging, tuples, salt, flash_out, None);
        let two = run(2, EngineKind::Baseline, wedging, tuples, salt, flash_out, None);
        prop_assert!(one.0.contains("wedged"), "{}", one.0);
        prop_assert_eq!(&one.0, &two.0, "wedge reports diverged");
        prop_assert!(one.1 == two.1, "device state diverged after a wedge");

        let one = run(1, EngineKind::Baseline, shape, tuples, salt, flash_out, Some(rounds));
        let two = run(2, EngineKind::Baseline, shape, tuples, salt, flash_out, Some(rounds));
        prop_assert!(one.0.contains("co-sim rounds"), "{}", one.0);
        prop_assert_eq!(&one.0, &two.0, "stuck reports diverged");
        prop_assert!(one.1 == two.1, "device state diverged after a stuck request");
    }
}
