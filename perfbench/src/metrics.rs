//! Metric definitions and the report: human-readable lines, the Chrome
//! trace file and the final JSON line.
//!
//! The two lists below are the contract with `BENCHMARK.json` (a test
//! checks they match). Host time is what the simulator takes; simulated
//! time is what the modelled SSD would take. Per-layer metrics that do
//! not apply to a workload read 0.

use crate::args::Args;
use crate::tally::ratio;
use crate::trace::{self, Span};
use crate::Measured;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric: name, unit, and which direction is better.
pub type Def = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: [Def; 5] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("sim_mb_per_s", "MB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_device_ms", "ms", "lower"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [Def; 71] = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.csv_bytes", "B", "lower"),
    ("snap.image_s", "s", "lower"),
    ("snap.fork_s", "s", "lower"),
    ("snap.forks", "count", "lower"),
    ("snap.pages_shared", "count", "higher"),
    ("analytics.run_s", "s", "lower"),
    ("analytics.self_s", "s", "lower"),
    ("analytics.scans", "count", "lower"),
    ("ssd.load_s", "s", "lower"),
    ("ssd.scomp_s", "s", "lower"),
    ("ssd.scomp_calls", "count", "lower"),
    ("ssd.read_s", "s", "lower"),
    ("ssd.read_calls", "count", "lower"),
    ("ssd.ns_per_instr", "ns", "lower"),
    ("ssd.cosim_rounds", "count", "lower"),
    ("ssd.epochs_skipped", "count", "higher"),
    ("core.instr", "count", "lower"),
    ("core.cycles", "count", "lower"),
    ("core.busy", "count", "lower"),
    ("core.stall_stream", "count", "lower"),
    ("core.stall_swap", "count", "lower"),
    ("core.util", "ratio", "higher"),
    ("mem.stall_l1", "count", "lower"),
    ("mem.stall_l2", "count", "lower"),
    ("mem.stall_dram", "count", "lower"),
    ("mem.stall_scratchpad", "count", "lower"),
    ("mem.dram_bytes", "B", "lower"),
    ("flash.page_reads", "count", "lower"),
    ("flash.channel_bytes", "B", "lower"),
    ("flash.channel_util", "ratio", "higher"),
    ("flash.read_retries", "count", "lower"),
    ("ftl.host_writes", "count", "lower"),
    ("ftl.gc_relocations", "count", "lower"),
    ("ftl.erases", "count", "lower"),
    ("ftl.write_amp", "ratio", "lower"),
    ("array.build_s", "s", "lower"),
    ("array.store_s", "s", "lower"),
    ("array.scomp_s", "s", "lower"),
    ("array.read_s", "s", "lower"),
    ("array.rebuild_s", "s", "lower"),
    ("array.merged_events", "count", "lower"),
    ("array.link_stall_ms", "ms", "lower"),
    ("array.degraded_chunks", "count", "lower"),
    ("array.rebuild_bytes", "B", "lower"),
    ("array.workers", "count", "higher"),
    ("serve.run_s", "s", "lower"),
    ("serve.execute_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("serve.ns_per_submission", "ns", "lower"),
    ("serve.submissions", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.executions", "count", "lower"),
    ("serve.memo_hit_ratio", "ratio", "higher"),
    ("sim_mips", "Minstr/s", "higher"),
    ("sim_ipc", "instr/cycle", "higher"),
    ("sim_speedup_geomean", "x", "higher"),
    ("sim_p99_us", "us", "lower"),
    ("sim_slo_load", "x", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("selftime.bench_s", "s", "lower"),
    ("selftime.workloads_s", "s", "lower"),
    ("selftime.snap_s", "s", "lower"),
    ("selftime.analytics_s", "s", "lower"),
    ("selftime.provider_s", "s", "lower"),
    ("selftime.ssd_s", "s", "lower"),
    ("selftime.array_s", "s", "lower"),
    ("selftime.serve_s", "s", "lower"),
    ("trace.root_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Spans timed per set-up; every other span is timed per repeat.
const SETUP_SPANS: [&str; 3] = ["workloads.gen", "ssd.load", "snap.image"];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-root span statistics: for each root named `root`, the summed
/// duration and summed self time of the spans under it, by span name.
type PerRoot = Vec<(BTreeMap<&'static str, u64>, BTreeMap<&'static str, u64>)>;

fn per_root(spans: &[Span], root: &str) -> PerRoot {
    let selfs = trace::self_times(spans);
    let roots = trace::roots(spans);
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out: PerRoot = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[roots[i]].name != root {
            continue;
        }
        let slot = *index.entry(roots[i]).or_insert_with(|| {
            out.push(Default::default());
            out.len() - 1
        });
        let (dur, selft) = &mut out[slot];
        *dur.entry(s.name).or_insert(0) += s.dur();
        *selft.entry(s.name).or_insert(0) += selfs[i];
        // Instance executions reached through the serving loop.
        if s.name == "array.scomp" && s.parent.is_some_and(|p| spans[p].name == "serve.run") {
            *dur.entry("serve.execute").or_insert(0) += s.dur();
        }
    }
    out
}

/// Median over roots of the summed value of `name`, in seconds.
fn median_s(roots: &PerRoot, name: &str, self_time: bool) -> f64 {
    let v: Vec<f64> = roots
        .iter()
        .map(|(dur, selft)| {
            let m = if self_time { selft } else { dur };
            m.get(name).copied().unwrap_or(0) as f64 * 1e-9
        })
        .collect();
    median(&v)
}

/// The per-layer values of a traced run, and whether the self times add
/// up to the root spans exactly.
fn per_layer(m: &Measured, wall_s: f64) -> (BTreeMap<&'static str, f64>, bool) {
    let c = &m.counts;
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let setups = per_root(&m.spans, "bench.setup");
    let iters = per_root(&m.spans, "bench.iteration");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _, _) in PER_LAYER {
        v.insert(name, get(name));
    }
    for name in [
        "workloads.gen",
        "ssd.load",
        "snap.image",
        "snap.fork",
        "analytics.run",
        "ssd.scomp",
        "ssd.read",
        "array.build",
        "array.store",
        "array.scomp",
        "array.read",
        "array.rebuild",
        "serve.run",
        "serve.execute",
    ] {
        let roots = if SETUP_SPANS.contains(&name) {
            &setups
        } else {
            &iters
        };
        let key = PER_LAYER
            .iter()
            .find(|(k, _, _)| k.strip_suffix("_s") == Some(name))
            .expect("every timed span has a metric")
            .0;
        v.insert(key, median_s(roots, name, false));
    }
    v.insert("analytics.self_s", median_s(&iters, "analytics.run", true));
    v.insert("serve.self_s", median_s(&iters, "serve.run", true));
    v.insert(
        "ssd.ns_per_instr",
        ratio(v["ssd.scomp_s"] * 1e9, get("core.instr")),
    );
    v.insert(
        "serve.ns_per_submission",
        ratio(v["serve.self_s"] * 1e9, get("serve.submissions")),
    );
    v.insert("sim_mips", ratio(get("core.instr"), wall_s * 1e6));
    v.insert("sim_ipc", get("sim.ipc"));
    v.insert(
        "failed_frac",
        ratio(m.checks.failed as f64, m.checks.attempted as f64),
    );

    let (layers, root_ns) = trace::layer_self_times(&m.spans, "bench.iteration");
    let n = m.traced_s.len().max(1) as f64;
    for (layer, ns) in &layers {
        let key = format!("selftime.{layer}_s");
        if let Some((k, _, _)) = PER_LAYER.iter().find(|(k, _, _)| *k == key) {
            v.insert(k, *ns as f64 * 1e-9 / n);
        }
    }
    let sums = layers.values().sum::<u64>() == root_ns && root_ns > 0;
    v.insert("trace.root_s", root_ns as f64 * 1e-9 / n);
    v.insert(
        "trace.overhead_frac",
        ratio(m.best_traced.iter().sum(), wall_s) - 1.0,
    );
    let iter_spans = trace::roots(&m.spans)
        .iter()
        .filter(|&&r| m.spans[r].name == "bench.iteration")
        .count();
    v.insert("trace.spans", iter_spans as f64 / n);
    (v, sums)
}

fn json_metrics(defs: &[Def], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, _)) in defs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            values[name]
        )
        .expect("writing to a String cannot fail");
    }
    out.push('}');
    out
}

/// Prints the run's metrics and the final JSON line; writes the trace.
///
/// # Errors
///
/// Fails when a metric cannot be read or the trace cannot be written.
pub fn report(args: &Args, m: &Measured) -> Result<(), String> {
    let wall_s: f64 = m.best_plain.iter().sum();
    let get = |k: &str| m.counts.get(k).copied().unwrap_or(0.0);
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert(
        "setup_s",
        m.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    e2e.insert("wall_s", wall_s);
    e2e.insert("sim_mb_per_s", ratio(get("flash.bytes"), wall_s * 1e6));
    e2e.insert("peak_rss_mb", peak_rss_mb()?);
    e2e.insert("sim_device_ms", get("sim.device_ms"));

    println!(
        "perfbench {} seed {} trace {}: {} set-ups, {} untraced and {} traced repeats",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.setup_s.len(),
        m.plain_s.len(),
        m.traced_s.len()
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("set-ups (s): {}", list(&m.setup_s));
    println!("untraced repeats (s): {}", list(&m.plain_s));
    println!("fastest untraced steps (s): {}", list(&m.best_plain));
    if args.trace {
        println!("traced repeats (s): {}", list(&m.traced_s));
    }
    let deterministic = m.digests.len() == 1;
    println!(
        "digest {} seed {} = {}",
        args.workload,
        args.seed,
        m.digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if !deterministic {
        println!("FAIL: simulated observables differ between repeats");
    }
    for note in &m.checks.notes {
        println!("FAIL: {note}");
    }
    println!(
        "checks: {} attempted, {} failed",
        m.checks.attempted, m.checks.failed
    );
    for (name, unit, _) in END_TO_END {
        println!("{name} = {} {unit}", e2e[name]);
    }
    for (k, v) in &m.counts {
        println!("count {k} = {v}");
    }

    let mut correct = deterministic && m.checks.attempted > 0 && m.checks.failed == 0;
    let (defs, values): (&[Def], BTreeMap<&'static str, f64>) = if args.trace {
        let (v, sums) = per_layer(m, wall_s);
        if !sums {
            println!("FAIL: per-layer self times do not add up to the root spans");
        }
        correct &= sums;
        for (name, unit, _) in PER_LAYER {
            println!("{name} = {} {unit}", v[name]);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
        std::fs::write(&path, trace::chrome_json(&m.spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace written to {path}");
        (&PER_LAYER, v)
    } else {
        (&END_TO_END, e2e)
    };
    if let Some((name, _, _)) = defs.iter().find(|(n, _, _)| !values[n].is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.checks.attempted.max(1),
        m.checks.failed,
        json_metrics(defs, &values)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn per_root_sums_named_spans_and_serve_executions() {
        let sp = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            req: 0,
        };
        let spans = vec![
            sp("bench.iteration", 0, 100, None),
            sp("serve.run", 0, 60, Some(0)),
            sp("array.scomp", 10, 30, Some(1)),
            sp("array.scomp", 70, 80, Some(0)),
            sp("bench.iteration", 200, 300, None),
            sp("serve.run", 200, 240, Some(4)),
        ];
        let roots = per_root(&spans, "bench.iteration");
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].0["array.scomp"], 30);
        assert_eq!(roots[0].0["serve.execute"], 20);
        assert_eq!(roots[0].1["serve.run"], 40);
        assert!((median_s(&roots, "serve.run", false) - 50e-9).abs() < 1e-18);
    }
}
