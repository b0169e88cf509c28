//! `serve_array`: four open-loop tenants served over a RAID6 array of
//! six AssasinSb devices, then one device fails, every object is read
//! degraded, and the device is rebuilt.
//!
//! The serving front-end memoizes each workload's service profile (its
//! default), so the device work is a handful of real executions per load
//! point while the front-end handles hundreds of thousands of
//! submissions: serve and array do most of the host work here, the cores
//! very little. Core and memory counts are not visible through the array
//! API and read 0.

use crate::tally::{ratio, Checks, Counts, Digest};
use crate::trace;
use crate::{Steps, Workload};
use assasin_array::{ArrayConfig, ArrayExec, ArrayPlacement, SsdArray};
use assasin_bench::bundles;
use assasin_core::EngineKind;
use assasin_serve::{
    serve, ArrayInstance, ArrivalModel, Instance, ServeConfig, ServeError, ServeReport,
    ServiceProfile, SplitMix64, TenantSpec,
};
use assasin_sim::SimDur;
use assasin_ssd::{Ssd, SsdConfig, SsdImage};
use std::sync::Arc;

/// Devices in the array (four data, P and Q).
const DEVICES: usize = 6;
/// Executors the array asks for (the calling thread plus one worker).
const WORKERS: usize = 2;
/// Stored objects, each served by a scan and a stat workload.
const OBJECTS: u64 = 3;
const OBJECT_BYTES: usize = 1 << 20;
/// Cold data every device is preconditioned with before the array forks.
const RESIDENT_BYTES: usize = 16 << 20;
/// Open-loop tenants and the submissions each offers per load point.
const TENANTS: usize = 4;
const REQUESTS: u32 = 200_000;
/// Admission-control depth per tenant.
const QUEUE_DEPTH: usize = 32;
/// Offered load as a multiple of the measured capacity.
const LADDER: [f64; 3] = [0.5, 1.0, 2.0];
/// The latency objective, in mean service times.
const SLO_SERVICES: u64 = 10;
/// The device that fails.
const FAILED: usize = 1;

fn device_config() -> SsdConfig {
    SsdConfig::engine_config(EngineKind::AssasinSb)
}

/// `Instance::execute` inside an `array.scomp` span.
struct Traced(ArrayInstance);

impl Instance for Traced {
    fn workload_count(&self) -> usize {
        self.0.workload_count()
    }

    fn workload_name(&self, workload: usize) -> &str {
        self.0.workload_name(workload)
    }

    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError> {
        trace::span("array.scomp", || self.0.execute(workload))
    }
}

/// The `serve_array` workload state.
pub struct ServeArray {
    seed: u64,
    image: Arc<SsdImage>,
    first_free_lpa: u64,
    objects: Vec<Vec<u8>>,
    input_bytes: u64,
    /// Last repeat's observations.
    last: Option<Last>,
    errors: Vec<String>,
}

/// A read's data, simulated time (ps) and degraded chunks.
type ReadOutcome = Result<(Vec<u8>, u64, u64), String>;

/// What one repeat observed.
struct Last {
    calibration: Vec<ServiceProfile>,
    points: Vec<Result<ServeReport, String>>,
    slo: SimDur,
    /// Degraded reads, then reads after the rebuild: (object, data, elapsed ps, degraded chunks).
    reads: Vec<(u64, ReadOutcome)>,
    rebuild: Result<String, String>,
    rebuild_ps: u64,
    rebuild_bytes: u64,
    stats: String,
    merged_events: u64,
    link_stall_ps: u64,
    flash_read_bytes: u64,
    pages_written: u64,
    workers: usize,
}

impl ServeArray {
    fn run_once(&mut self, steps: &mut Steps) -> Result<Last, String> {
        let cfg = ArrayConfig::new(DEVICES, ArrayPlacement::Raid6, device_config())
            .with_exec(ArrayExec::Threaded { workers: WORKERS });
        let array = steps
            .time(|| {
                trace::span("array.build", || {
                    SsdArray::from_image(cfg, Arc::clone(&self.image), self.first_free_lpa)
                })
            })
            .map_err(|e| format!("array: {e}"))?;
        let mut inst = ArrayInstance::new(array);
        steps.time(|| {
            trace::span("array.store", || -> Result<(), String> {
                for (id, data) in self.objects.iter().enumerate() {
                    inst.array_mut()
                        .store_object(id as u64, data)
                        .map_err(|e| format!("store object {id}: {e}"))?;
                }
                Ok(())
            })
        })?;
        for id in 0..OBJECTS {
            inst.register(format!("scan-{id}"), id, bundles::scan_bundle);
            inst.register(format!("stat-{id}"), id, bundles::stat_bundle);
        }
        let mut inst = Traced(inst);
        let workloads = inst.workload_count();

        // Capacity: the mean service time of the catalog, each workload
        // executed once (the device quiesces per request).
        let calibration = steps.time(|| {
            (0..workloads)
                .map(|w| inst.execute(w).map_err(|e| format!("calibrate {w}: {e}")))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let mean_ps = calibration.iter().map(|p| p.elapsed.as_ps()).sum::<u64>() / workloads as u64;
        let slo = SimDur::from_ps(mean_ps * SLO_SERVICES);

        let points = LADDER
            .iter()
            .enumerate()
            .map(|(i, &load)| {
                let gap = SimDur::from_ps((mean_ps as f64 * TENANTS as f64 / load) as u64);
                let tenants = (0..TENANTS)
                    .map(|t| {
                        let mix = (0..workloads)
                            .map(|w| (w, if w % TENANTS == t { 3 } else { 1 }))
                            .collect();
                        TenantSpec::new(
                            format!("tenant{t}"),
                            QUEUE_DEPTH,
                            ArrivalModel::Open {
                                mean_gap: gap,
                                requests: REQUESTS,
                            },
                        )
                        .with_mix(mix)
                        .with_slo(slo)
                    })
                    .collect();
                let cfg = ServeConfig::new(self.seed ^ i as u64, tenants);
                trace::set_request(i as u64 + 1);
                steps
                    .time(|| trace::span("serve.run", || serve(&mut inst, &cfg)))
                    .map_err(|e| e.to_string())
            })
            .collect();

        let array = inst.0.array_mut();
        array.fail_device(FAILED);
        let mut reads = Vec::new();
        let read_all = |array: &mut SsdArray, reads: &mut Vec<_>| {
            for id in 0..OBJECTS {
                let r = trace::span("array.read", || array.read_object(id))
                    .map(|r| (r.data, r.elapsed.as_ps(), r.degraded_chunks))
                    .map_err(|e| e.to_string());
                reads.push((id, r));
            }
        };
        trace::set_request(10);
        steps.time(|| read_all(array, &mut reads));
        trace::set_request(11);
        let rebuilt = steps.time(|| trace::span("array.rebuild", || array.rebuild_device(FAILED)));
        trace::set_request(12);
        steps.time(|| read_all(array, &mut reads));
        let (rebuild, rebuild_ps, rebuild_bytes) = match rebuilt {
            Ok(r) => (Ok(format!("{r:?}")), r.elapsed.as_ps(), r.bytes_written),
            Err(e) => (Err(e.to_string()), 0, 0),
        };
        let stats = array.stats();
        Ok(Last {
            calibration,
            points,
            slo,
            reads,
            rebuild,
            rebuild_ps,
            rebuild_bytes,
            stats: format!("{stats:?}"),
            merged_events: stats.merged_events,
            link_stall_ps: stats.link_stalled.as_ps(),
            flash_read_bytes: stats
                .devices
                .iter()
                .map(|d| d.read_bytes + d.scomp_bytes_in)
                .sum(),
            pages_written: stats.devices.iter().map(|d| d.pages_written).sum(),
            workers: array.effective_workers(),
        })
    }
}

impl Workload for ServeArray {
    fn setup(seed: u64) -> Result<Self, String> {
        let (objects, resident) = trace::span("workloads.gen", || {
            let mut rng = SplitMix64::new(seed);
            let mut bytes = |n: usize| -> Vec<u8> {
                (0..n / 8)
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .collect()
            };
            let objects: Vec<Vec<u8>> = (0..OBJECTS).map(|_| bytes(OBJECT_BYTES)).collect();
            (objects, bytes(RESIDENT_BYTES))
        });
        let mut ssd = Ssd::new(device_config());
        let lpas = trace::span("ssd.load", || ssd.load_object(0, &resident))
            .map_err(|e| format!("load resident data: {e}"))?;
        Ok(ServeArray {
            seed,
            image: Arc::new(trace::span("snap.image", || ssd.into_image())),
            first_free_lpa: lpas.len() as u64,
            input_bytes: (OBJECTS as usize * OBJECT_BYTES + RESIDENT_BYTES) as u64,
            objects,
            last: None,
            errors: Vec::new(),
        })
    }

    /// The expected read-back data are the stored objects themselves.
    type Expected = ();

    fn reference(&self) {}

    fn run(&mut self, steps: &mut Steps) {
        self.errors.clear();
        match self.run_once(steps) {
            Ok(last) => self.last = Some(last),
            Err(e) => {
                self.last = None;
                self.errors.push(e);
            }
        }
    }

    fn finish(&mut self, _: &(), counts: &mut Counts, digest: &mut Digest, checks: &mut Checks) {
        counts.insert("workloads.csv_bytes", self.input_bytes as f64);
        for e in &self.errors {
            checks.record(false, || e.clone());
        }
        let Some(last) = &self.last else { return };
        let page = device_config().geometry.page_bytes as u64;
        let mut device_ps = 0u64;
        for (w, p) in last.calibration.iter().enumerate() {
            digest.dur(p.elapsed);
            digest.u64(p.bytes_in);
            digest.u64(p.bytes_out);
            device_ps += p.elapsed.as_ps();
            let object = self.objects[w / 2].len() as u64;
            checks.record(p.bytes_in == object, || {
                format!("workload {w} streamed {} of {object} bytes", p.bytes_in)
            });
        }
        let (mut submitted, mut rejected, mut completed, mut executions) = (0u64, 0u64, 0u64, 0u64);
        let mut slo_load = 0.0f64;
        let mut p99_at_capacity = 0.0f64;
        for (point, &load) in last.points.iter().zip(&LADDER) {
            let r = match point {
                Ok(r) => r,
                Err(e) => {
                    checks.record(false, || format!("serving at {load}x: {e}"));
                    continue;
                }
            };
            digest.blob(
                serde_json::to_string(r)
                    .expect("shim serialization is infallible")
                    .as_bytes(),
            );
            let offered: u64 = r.tenants.iter().map(|t| t.submitted).sum();
            checks.record(
                offered == TENANTS as u64 * REQUESTS as u64
                    && r.total_completed + r.total_rejected == offered,
                || format!("serving at {load}x lost requests"),
            );
            submitted += offered;
            rejected += r.total_rejected;
            completed += r.total_completed;
            executions += r.executions;
            device_ps += (r.device_busy_us * 1e6).round() as u64;
            let worst_p99 = r
                .tenants
                .iter()
                .map(|t| t.p99_us.unwrap_or(f64::INFINITY))
                .fold(0.0, f64::max);
            if load == 1.0 {
                p99_at_capacity = worst_p99;
            }
            if r.total_rejected == 0 && worst_p99 <= last.slo.as_ps() as f64 * 1e-6 {
                slo_load = slo_load.max(load);
            }
        }
        let mut degraded_chunks = 0u64;
        for (i, (id, r)) in last.reads.iter().enumerate() {
            let when = if i < OBJECTS as usize {
                "degraded"
            } else {
                "rebuilt"
            };
            match r {
                Ok((data, ps, degraded)) => {
                    digest.blob(data);
                    digest.u64(*ps);
                    digest.u64(*degraded);
                    device_ps += ps;
                    degraded_chunks += degraded;
                    checks.record(*data == self.objects[*id as usize], || {
                        format!("{when} read of object {id} differs from the stored bytes")
                    });
                }
                Err(e) => checks.record(false, || format!("{when} read of object {id}: {e}")),
            }
        }
        match &last.rebuild {
            Ok(report) => digest.blob(report.as_bytes()),
            Err(e) => checks.record(false, || format!("rebuild: {e}")),
        }
        device_ps += last.rebuild_ps;
        digest.blob(last.stats.as_bytes());

        let c = counts;
        c.insert("serve.submissions", submitted as f64);
        c.insert("serve.rejected", rejected as f64);
        c.insert("serve.executions", executions as f64);
        c.insert(
            "serve.memo_hit_ratio",
            ratio(
                completed.saturating_sub(executions) as f64,
                completed as f64,
            ),
        );
        c.insert("sim_p99_us", p99_at_capacity);
        c.insert("sim_slo_load", slo_load);
        c.insert("array.merged_events", last.merged_events as f64);
        c.insert("array.link_stall_ms", last.link_stall_ps as f64 * 1e-9);
        c.insert("array.degraded_chunks", degraded_chunks as f64);
        c.insert("array.rebuild_bytes", last.rebuild_bytes as f64);
        c.insert("array.workers", last.workers as f64);
        c.insert("flash.channel_bytes", last.flash_read_bytes as f64);
        c.insert(
            "flash.page_reads",
            last.flash_read_bytes.div_ceil(page) as f64,
        );
        c.insert("ftl.host_writes", last.pages_written as f64);
        c.insert(
            "flash.bytes",
            (last.flash_read_bytes + last.pages_written * page) as f64,
        );
        c.insert("sim.device_ms", device_ps as f64 * 1e-9);
    }
}
