//! The instance layer: the device half of the transport/instance split.
//!
//! An [`Instance`] is whatever actually executes admitted work — a
//! single [`Ssd`] or a whole [`SsdArray`] — exposed to the server as a
//! numbered catalog of workloads. The server never touches device types
//! directly, so serving policy (queues, fairness, SLOs) is identical
//! over both backends.
//!
//! Every execution quiesces the device to t = 0 (that is `Ssd::scomp`'s
//! own contract), so a read-only workload's [`ServiceProfile`] is a pure
//! function of the workload — which is what makes the server's
//! memoization sound. A workload that writes its output to flash changes
//! the FTL state later executions see, so [`Instance::memoizable`] says
//! no for it and the server executes it every time.

use crate::error::ServeError;
use assasin_array::SsdArray;
use assasin_sim::SimDur;
use assasin_ssd::{KernelBundle, OutputTarget, ScompRequest, Ssd};

/// What one execution of a workload cost, in simulated terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Device-resident service time.
    pub elapsed: SimDur,
    /// Input bytes streamed out of flash.
    pub bytes_in: u64,
    /// Result bytes produced.
    pub bytes_out: u64,
}

/// A device (or device array) offering a numbered workload catalog.
pub trait Instance {
    /// Number of registered workloads (ids are `0..count`).
    fn workload_count(&self) -> usize;

    /// Display name of workload `workload`.
    ///
    /// # Panics
    ///
    /// May panic if `workload` is out of range; the server validates ids
    /// before calling.
    fn workload_name(&self, workload: usize) -> &str;

    /// Executes workload `workload` once on the backing device.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownWorkload`] for an out-of-range id, or the
    /// backing device's typed failure.
    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError>;

    /// Whether `workload`'s profile may be replayed instead of executed:
    /// true when an execution leaves the device as it found it.
    fn memoizable(&self, _workload: usize) -> bool {
        true
    }
}

type RequestBuilder = Box<dyn Fn() -> ScompRequest>;

/// A single simulated SSD serving a catalog of scomp workloads.
pub struct SsdInstance {
    ssd: Ssd,
    workloads: Vec<(String, RequestBuilder)>,
}

impl SsdInstance {
    /// Wraps an already-loaded device (callers `load_object` their data
    /// first, then register workloads over it).
    pub fn new(ssd: Ssd) -> Self {
        SsdInstance {
            ssd,
            workloads: Vec::new(),
        }
    }

    /// Registers a workload and returns its id (registration order).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        build: impl Fn() -> ScompRequest + 'static,
    ) -> usize {
        self.workloads.push((name.into(), Box::new(build)));
        self.workloads.len() - 1
    }

    /// The wrapped device (for loading data).
    pub fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }
}

impl Instance for SsdInstance {
    fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    fn workload_name(&self, workload: usize) -> &str {
        &self.workloads[workload].0
    }

    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError> {
        let (_, build) = self
            .workloads
            .get(workload)
            .ok_or(ServeError::UnknownWorkload {
                workload,
                registered: self.workloads.len(),
            })?;
        let req = build();
        let r = self.ssd.scomp(&req)?;
        Ok(ServiceProfile {
            elapsed: r.elapsed,
            bytes_in: r.bytes_in,
            bytes_out: r.bytes_out,
        })
    }

    /// Host-bound workloads only: a flash-output request programs pages.
    fn memoizable(&self, workload: usize) -> bool {
        self.workloads
            .get(workload)
            .is_some_and(|(_, build)| build().output == OutputTarget::Host)
    }
}

type KernelBuilder = Box<dyn Fn() -> KernelBundle>;

/// An SSD array serving object-scoped kernel workloads.
pub struct ArrayInstance {
    array: SsdArray,
    workloads: Vec<(String, u64, KernelBuilder)>,
}

impl ArrayInstance {
    /// Wraps an already-populated array.
    pub fn new(array: SsdArray) -> Self {
        ArrayInstance {
            array,
            workloads: Vec::new(),
        }
    }

    /// Registers a kernel-over-object workload and returns its id.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        object: u64,
        make_kernel: impl Fn() -> KernelBundle + 'static,
    ) -> usize {
        self.workloads
            .push((name.into(), object, Box::new(make_kernel)));
        self.workloads.len() - 1
    }

    /// The wrapped array (for storing objects).
    pub fn array_mut(&mut self) -> &mut SsdArray {
        &mut self.array
    }
}

impl Instance for ArrayInstance {
    fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    fn workload_name(&self, workload: usize) -> &str {
        &self.workloads[workload].0
    }

    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError> {
        let (_, object, make_kernel) =
            self.workloads
                .get(workload)
                .ok_or(ServeError::UnknownWorkload {
                    workload,
                    registered: self.workloads.len(),
                })?;
        let r = self.array.scomp_object(*object, &**make_kernel)?;
        Ok(ServiceProfile {
            elapsed: r.elapsed,
            bytes_in: r.bytes_in,
            bytes_out: r.bytes_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrivalModel, ServeConfig, TenantSpec};
    use crate::server::serve;
    use assasin_core::EngineKind;
    use assasin_kernels::{replicate, scan};
    use assasin_sim::SimDur;
    use assasin_ssd::SsdConfig;

    #[test]
    fn ssd_instance_executes_registered_workloads_and_rejects_unknown_ids() {
        let mut inst =
            SsdInstance::new(Ssd::new(SsdConfig::small_for_tests(EngineKind::AssasinSb)));
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 241) as u8).collect();
        let lpas = inst.ssd_mut().load_object(0, &data).unwrap();
        let bytes = data.len() as u64;
        let id = inst.register("scan", move || {
            let bundle = KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program);
            ScompRequest::new(bundle, vec![lpas.clone()]).with_stream_bytes(vec![bytes])
        });
        assert_eq!(inst.workload_count(), 1);
        assert_eq!(inst.workload_name(id), "scan");

        let p = inst.execute(id).unwrap();
        assert_eq!(p.bytes_in, bytes);
        assert!(!p.elapsed.is_zero());
        // Quiesced device: a second execution costs exactly the same.
        assert_eq!(inst.execute(id).unwrap(), p);

        match inst.execute(7) {
            Err(ServeError::UnknownWorkload {
                workload: 7,
                registered: 1,
            }) => {}
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
    }

    #[test]
    fn write_path_workloads_are_never_memoized() {
        let mut inst =
            SsdInstance::new(Ssd::new(SsdConfig::small_for_tests(EngineKind::AssasinSb)));
        let data: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 251) as u8).collect();
        let lpas = inst.ssd_mut().load_object(0, &data).unwrap();
        let bytes = data.len() as u64;
        let replicate = inst.register("replicate", move || {
            let bundle = KernelBundle::new(
                "replicate",
                replicate::TUPLE_BYTES,
                replicate::COPIES as f64,
                replicate::program,
            );
            ScompRequest::new(bundle, vec![lpas.clone()])
                .with_stream_bytes(vec![bytes])
                .with_flash_output(50_000)
        });
        assert!(!inst.memoizable(replicate));
        assert!(!inst.memoizable(replicate + 1), "unknown ids are not pure");

        let open = ArrivalModel::Open {
            mean_gap: SimDur::from_us(20),
            requests: 6,
        };
        let cfg = ServeConfig::new(
            4,
            vec![TenantSpec::new("a", 8, open), TenantSpec::new("b", 8, open)],
        );
        assert!(cfg.memoize);
        let report = serve(&mut inst, &cfg).unwrap();
        assert_eq!(report.total_completed, 12);
        assert_eq!(report.executions, report.total_completed);
    }

    /// A scan and a replicate on one nearly full device: every replicate
    /// remaps the pages the scan reads and garbage-collects, so a scan
    /// profile cached before it would be stale. With memoization on, the
    /// report is still the one every-request execution gives.
    #[test]
    fn a_write_path_workload_invalidates_cached_read_profiles() {
        let instance = || {
            let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
            cfg.geometry.blocks_per_plane = 8;
            cfg.geometry.pages_per_block = 16;
            let mut inst = SsdInstance::new(Ssd::new(cfg));
            let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 239) as u8).collect();
            let ssd = inst.ssd_mut();
            let lpas = ssd.load_object(0, &data).unwrap();
            // 3136 exported pages: fill most of them so overwrites soon
            // need GC.
            ssd.load_object(100, &vec![7u8; 2750 * 4096]).unwrap();
            let bytes = data.len() as u64;
            // The scan reads the first engine's replicate output.
            let scan_lpas = ssd.load_object(2900, &data[..48 * 4096]).unwrap();
            let scan_bytes = 48 * 4096u64;
            inst.register("scan", move || {
                let bundle = KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program);
                ScompRequest::new(bundle, vec![scan_lpas.clone()])
                    .with_stream_bytes(vec![scan_bytes])
            });
            inst.register("replicate", move || {
                let bundle = KernelBundle::new(
                    "replicate",
                    replicate::TUPLE_BYTES,
                    replicate::COPIES as f64,
                    replicate::program,
                );
                ScompRequest::new(bundle, vec![lpas.clone()])
                    .with_stream_bytes(vec![bytes])
                    .with_flash_output(2900)
            });
            inst
        };
        let open = ArrivalModel::Open {
            mean_gap: SimDur::from_us(50),
            requests: 18,
        };
        let mut cfg = ServeConfig::new(
            9,
            vec![TenantSpec::new("mixed", 64, open).with_mix(vec![(0, 2), (1, 1)])],
        );
        let (mut on_inst, mut off_inst) = (instance(), instance());
        let on = serve(&mut on_inst, &cfg).unwrap();
        cfg.memoize = false;
        let mut off = serve(&mut off_inst, &cfg).unwrap();
        assert!(on_inst.ssd_mut().ftl_stats().erases > 0, "GC must have run");
        assert_eq!(off.executions, off.total_completed);
        assert!(on.executions < off.executions, "some scans were replayed");
        off.executions = on.executions;
        assert_eq!(
            serde_json::to_string(&on).unwrap(),
            serde_json::to_string(&off).unwrap()
        );
    }
}
