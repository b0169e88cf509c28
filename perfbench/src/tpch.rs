//! `tpch_scan`: the 22 TPC-H queries in the three Figure 15 modes
//! (CPU-only, Baseline offload, AssasinSb offload), each mode forked off
//! one loaded device image.
//!
//! The scan providers mirror `assasin_bench::provider` call for call (a
//! test pins the equivalence) so that every `scomp` result is visible
//! here: the library's providers consume their results internally, and
//! the core, memory and flash counts live only in those results.

use crate::tally::{Checks, Counts, DeviceMark, Digest, Work};
use crate::trace;
use crate::{Steps, Workload};
use assasin_analytics::{
    costs, queries, Executor, HostCpuModel, HostScanProvider, Plan, Pred, QueryResult, Relation,
    ScanOutcome, ScanProvider,
};
use assasin_bench::{bundles, runner::ssd_with, Scale};
use assasin_core::EngineKind;
use assasin_ftl::Lpa;
use assasin_kernels::query::PsfParams;
use assasin_serve::SplitMix64;
use assasin_sim::stats::geomean;
use assasin_ssd::{ScompRequest, Ssd, SsdConfig, SsdImage};
use assasin_workloads::{Table, TableId, TpchGen};
use std::collections::HashMap;

/// The three Figure 15 system configurations, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Raw CSV crosses PCIe; the host parses and filters.
    CpuOnly,
    /// PSF offload on the Baseline (DRAM-staged, cached) engine.
    Baseline,
    /// PSF offload on AssasinSb (streambuffers, no DRAM caches).
    Assasin,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::CpuOnly, Mode::Baseline, Mode::Assasin];

    fn engine(self) -> EngineKind {
        match self {
            Mode::CpuOnly | Mode::Baseline => EngineKind::Baseline,
            Mode::Assasin => EngineKind::AssasinSb,
        }
    }
}

#[derive(Debug, Clone)]
struct Stored {
    lpas: Vec<Lpa>,
    csv_len: u64,
    table: Table,
}

/// A loaded dataset: one device image plus where each table lives.
pub struct Loaded {
    image: SsdImage,
    tables: HashMap<TableId, Stored>,
    csv_bytes: u64,
}

/// TPC-H's substitution parameters, reduced to dates: moves every date
/// window of `plan` by `days` (TPC-H's query generator draws each query's
/// DATE parameters afresh for every query stream).
pub fn shift_dates(plan: &mut Plan, days: u32) {
    match plan {
        Plan::Scan { table, preds, .. } => {
            for p in preds.iter_mut() {
                if table.columns()[p.col as usize].ends_with("date") {
                    p.lo = p.lo.saturating_add(days);
                    p.hi = p.hi.saturating_add(days);
                }
            }
        }
        Plan::Join { left, right, .. } => {
            shift_dates(left, days);
            shift_dates(right, days);
        }
        Plan::Agg { input, .. } | Plan::Sort { input, .. } => shift_dates(input, days),
    }
}

/// The 22 query plans for `seed`: seed 0 runs Figure 15's plans, any
/// other seed moves their date windows by 1 to 60 days.
pub fn plans(seed: u64) -> Vec<Plan> {
    let days = match seed {
        0 => 0,
        s => 1 + (SplitMix64::new(s).next_u64() % 60) as u32,
    };
    queries::all_ids()
        .map(|q| {
            let mut plan = queries::plan(q);
            shift_dates(&mut plan, days);
            plan
        })
        .collect()
}

/// Generates the dataset for `gen` and loads it the way
/// `assasin_bench::provider::LoadedTables::load` does.
pub fn load(gen: &TpchGen) -> Result<Loaded, String> {
    let generated: Vec<(TableId, Table, Vec<u8>)> = trace::span("workloads.gen", || {
        TableId::ALL
            .into_iter()
            .map(|id| {
                let table = gen.table(id);
                let csv = table.to_csv();
                (id, table, csv)
            })
            .collect()
    });
    let mut ssd = ssd_with(EngineKind::Baseline, 8, false, false);
    let mut tables = HashMap::new();
    let mut csv_bytes = 0;
    trace::span("ssd.load", || -> Result<(), String> {
        for (i, (id, table, csv)) in generated.into_iter().enumerate() {
            let lpas = ssd
                .load_object(i as u64 * (1 << 20), &csv)
                .map_err(|e| format!("load {id:?}: {e}"))?;
            csv_bytes += csv.len() as u64;
            tables.insert(
                id,
                Stored {
                    lpas,
                    csv_len: csv.len() as u64,
                    table,
                },
            );
        }
        Ok(())
    })?;
    let image = trace::span("snap.image", || ssd.into_image());
    Ok(Loaded {
        image,
        tables,
        csv_bytes,
    })
}

/// What the scan providers of one repeat observed.
#[derive(Default)]
pub struct Tally {
    /// Core, memory and flash work of every device call.
    pub work: Work,
    /// Scans served.
    pub scans: u64,
    /// Device errors (each turns its scan into an empty relation).
    pub errors: Vec<String>,
    digest: Digest,
}

/// A scan provider for one mode, over a device forked off the image.
pub struct Provider<'a> {
    mode: Mode,
    ssd: Ssd,
    tables: &'a HashMap<TableId, Stored>,
    tally: &'a mut Tally,
}

impl<'a> Provider<'a> {
    /// Forks the device for `mode` off the loaded image.
    pub fn fork(loaded: &'a Loaded, mode: Mode, tally: &'a mut Tally) -> Self {
        let mut cfg = SsdConfig::engine_config(mode.engine());
        cfg.n_cores = 8;
        cfg.adjusted_timing = false;
        let ssd = trace::span("snap.fork", || loaded.image.fork(cfg));
        Provider {
            mode,
            ssd,
            tables: &loaded.tables,
            tally,
        }
    }

    fn offload_scan(
        &mut self,
        stored: &Stored,
        table: TableId,
        preds: &[Pred],
        project: &[u32],
    ) -> ScanOutcome {
        let fields = table.width() as u32;
        // Push the first predicate into the SSD; the rest are residual.
        let (dev_pred, residual) = match preds.split_first() {
            Some((d, r)) => (*d, r),
            None => (
                Pred {
                    col: 0,
                    lo: 0,
                    hi: u32::MAX,
                },
                &[][..],
            ),
        };
        let mut keep: Vec<u32> = project.to_vec();
        for p in residual {
            if !keep.contains(&p.col) {
                keep.push(p.col);
            }
        }
        let params = PsfParams {
            fields,
            pred_field: dev_pred.col,
            lo: dev_pred.lo,
            hi: dev_pred.hi,
            keep: keep.clone(),
        };
        let req = ScompRequest::new(bundles::psf_bundle(params), vec![stored.lpas.clone()])
            .with_stream_bytes(vec![stored.csv_len]);
        let result = match trace::span("ssd.scomp", || self.ssd.scomp(&req)) {
            Ok(r) => r,
            Err(e) => return self.failed(format!("{:?} scomp {table:?}: {e}", self.mode), project),
        };
        self.tally.work.scomp(&result);
        self.tally.digest.scomp(&result);
        let wide = Relation::from_binary(keep.len().max(1), &result.concat_output());

        // Residual filtering + final projection on the host.
        let col_pos = |c: u32| keep.iter().position(|&k| k == c).expect("kept");
        let mut rel = Relation::empty(project.len().max(1));
        let mut buf = Vec::with_capacity(project.len());
        let mut kept_rows = 0usize;
        for row in wide.iter() {
            if residual.iter().all(|p| p.matches(row[col_pos(p.col)])) {
                buf.clear();
                buf.extend(project.iter().map(|&c| row[col_pos(c)]));
                rel.push_row(&buf);
                kept_rows += 1;
            }
        }
        let host_ops = wide.rows() as f64 * costs::INGEST_PER_ROW
            + wide.rows() as f64 * residual.len() as f64 * costs::FILTER_PER_ROW
            + kept_rows as f64 * costs::MATERIALIZE_PER_ROW;
        ScanOutcome {
            relation: rel,
            device_time: result.elapsed,
            host_ops,
            bytes_from_storage: result.bytes_out,
        }
    }

    fn cpu_scan(
        &mut self,
        stored: &Stored,
        table: TableId,
        preds: &[Pred],
        project: &[u32],
    ) -> ScanOutcome {
        let io = match trace::span("ssd.read", || {
            self.ssd.read_lpas(&stored.lpas, stored.csv_len)
        }) {
            Ok(io) => io,
            Err(e) => return self.failed(format!("CpuOnly read {table:?}: {e}"), project),
        };
        self.tally.work.read(&io);
        self.tally.digest.blob(&io.data);
        self.tally.digest.dur(io.elapsed);
        let mut rel = Relation::empty(project.len().max(1));
        let mut buf = Vec::with_capacity(project.len());
        let mut kept = 0usize;
        for row in stored.table.iter() {
            if preds.iter().all(|p| p.matches(row[p.col as usize])) {
                buf.clear();
                buf.extend(project.iter().map(|&c| row[c as usize]));
                rel.push_row(&buf);
                kept += 1;
            }
        }
        let rows = stored.table.rows() as f64;
        let host_ops = stored.csv_len as f64 * costs::PARSE_PER_BYTE
            + rows * preds.len().max(1) as f64 * costs::FILTER_PER_ROW
            + kept as f64 * costs::MATERIALIZE_PER_ROW;
        ScanOutcome {
            relation: rel,
            device_time: io.elapsed,
            host_ops,
            bytes_from_storage: stored.csv_len,
        }
    }

    fn failed(&mut self, note: String, project: &[u32]) -> ScanOutcome {
        self.tally.errors.push(note);
        ScanOutcome {
            relation: Relation::empty(project.len().max(1)),
            device_time: Default::default(),
            host_ops: 0.0,
            bytes_from_storage: 0,
        }
    }
}

impl ScanProvider for Provider<'_> {
    fn scan(&mut self, table: TableId, preds: &[Pred], project: &[u32]) -> ScanOutcome {
        let open = trace::begin("provider.scan");
        self.tally.scans += 1;
        let tables = self.tables;
        let out = match tables.get(&table) {
            None => self.failed(format!("table {table:?} not loaded"), project),
            Some(stored) if self.mode == Mode::CpuOnly => {
                self.cpu_scan(stored, table, preds, project)
            }
            Some(stored) => self.offload_scan(stored, table, preds, project),
        };
        trace::end(open);
        out
    }
}

/// Runs every plan on `provider`, one step each, returning the results in
/// plan order.
pub fn run_queries(
    plans: &[Plan],
    provider: &mut dyn ScanProvider,
    first_req: u64,
    steps: &mut Steps,
) -> Vec<QueryResult> {
    plans
        .iter()
        .enumerate()
        .map(|(q, plan)| {
            trace::set_request(first_req + q as u64 + 1);
            steps.time(|| {
                trace::span("analytics.run", || {
                    Executor::new(provider, HostCpuModel::paper_host()).run(plan)
                })
            })
        })
        .collect()
}

/// The `tpch_scan` workload state.
pub struct Tpch {
    gen: TpchGen,
    plans: Vec<Plan>,
    loaded: Loaded,
    /// Last iteration: per mode, per query results.
    results: Vec<Vec<QueryResult>>,
    tally: Tally,
}

impl Workload for Tpch {
    fn setup(seed: u64) -> Result<Self, String> {
        // The dataset is Figure 15's at every seed, as TPC-H fixes the
        // data for a scale factor; the seed draws the date parameters, and
        // seed 0 reproduces the committed Figure 15 report exactly.
        let scale = Scale::default_scale();
        let gen = TpchGen::new(scale.sf, scale.seed);
        Ok(Tpch {
            gen,
            plans: plans(seed),
            loaded: load(&gen)?,
            results: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// The host-side answer of every query.
    type Expected = Vec<Relation>;

    fn reference(&self) -> Vec<Relation> {
        let mut host = HostScanProvider::new();
        for id in TableId::ALL {
            host.add_table(self.gen.table(id));
        }
        run_queries(&self.plans, &mut host, 0, &mut Steps::default())
            .into_iter()
            .map(|r| r.relation)
            .collect()
    }

    fn run(&mut self, steps: &mut Steps) {
        self.results.clear();
        self.tally = Tally::default();
        for (m, mode) in Mode::ALL.into_iter().enumerate() {
            let mut provider = steps.time(|| Provider::fork(&self.loaded, mode, &mut self.tally));
            let before = DeviceMark::of(&provider.ssd);
            let results = run_queries(&self.plans, &mut provider, 100 * (m as u64 + 1), steps);
            provider.tally.work.device_delta(&provider.ssd, &before);
            self.results.push(results);
        }
    }

    fn finish(
        &mut self,
        expected: &Vec<Relation>,
        counts: &mut Counts,
        digest: &mut Digest,
        checks: &mut Checks,
    ) {
        digest.u64(self.tally.digest.value());
        for results in &self.results {
            for (q, r) in results.iter().enumerate() {
                digest.u64(r.relation.arity() as u64);
                for row in r.relation.iter() {
                    for &v in row {
                        digest.u64(v as u64);
                    }
                }
                digest.dur(r.device_time);
                digest.dur(r.host_time);
                digest.u64(r.bytes_from_storage);
                let ok = expected.get(q) == Some(&r.relation);
                checks.record(ok, || {
                    format!("Q{} relation differs from the host answer", q + 1)
                });
            }
        }
        for e in &self.tally.errors {
            checks.fail(e.clone());
        }
        self.tally.work.fill(counts);
        let ms = |m: usize| -> Vec<f64> {
            self.results[m]
                .iter()
                .map(|r| r.total().as_secs_f64() * 1e3)
                .collect()
        };
        let (base, sb) = (ms(1), ms(2));
        let speedups: Vec<f64> = base.iter().zip(&sb).map(|(b, a)| b / a).collect();
        counts.insert("sim_speedup_geomean", geomean(&speedups).unwrap_or(0.0));
        counts.insert("analytics.scans", self.tally.scans as f64);
        counts.insert("workloads.csv_bytes", self.loaded.csv_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_bench::provider::{CpuOnlyProvider, LoadedTables, SsdScanProvider};

    #[test]
    fn providers_match_the_library_providers() {
        let gen = TpchGen::new(0.001, 7);
        let ours = load(&gen).expect("dataset fits");
        let theirs = LoadedTables::load(&gen).expect("dataset fits");
        for mode in Mode::ALL {
            let mut tally = Tally::default();
            let mut a = Provider::fork(&ours, mode, &mut tally);
            let mut b: Box<dyn ScanProvider> = match mode {
                Mode::CpuOnly => Box::new(CpuOnlyProvider::from_tables(&theirs)),
                m => Box::new(SsdScanProvider::from_tables(m.engine(), false, &theirs)),
            };
            for q in [1, 6, 14] {
                let plan = queries::plan(q);
                let ra = Executor::new(&mut a, HostCpuModel::paper_host()).run(&plan);
                let rb = Executor::new(b.as_mut(), HostCpuModel::paper_host()).run(&plan);
                assert_eq!(ra.relation, rb.relation, "{mode:?} Q{q}");
                assert_eq!(ra.device_time, rb.device_time, "{mode:?} Q{q}");
                assert_eq!(ra.host_time, rb.host_time, "{mode:?} Q{q}");
                assert_eq!(
                    ra.bytes_from_storage, rb.bytes_from_storage,
                    "{mode:?} Q{q}"
                );
            }
            assert!(a.tally.errors.is_empty(), "{:?}", a.tally.errors);
            assert!(a.tally.scans > 0);
        }
    }

    fn scan_preds(plan: &Plan, out: &mut Vec<(TableId, Pred)>) {
        match plan {
            Plan::Scan { table, preds, .. } => out.extend(preds.iter().map(|p| (*table, *p))),
            Plan::Join { left, right, .. } => {
                scan_preds(left, out);
                scan_preds(right, out);
            }
            Plan::Agg { input, .. } | Plan::Sort { input, .. } => scan_preds(input, out),
        }
    }

    #[test]
    fn seeds_move_every_date_window_by_the_same_days() {
        let base = plans(0);
        assert_eq!(
            base,
            queries::all_ids().map(queries::plan).collect::<Vec<_>>()
        );
        let moved = plans(3);
        assert_eq!(moved, plans(3), "deterministic");
        let mut days = None;
        for (b, m) in base.iter().zip(&moved) {
            let (mut pb, mut pm) = (Vec::new(), Vec::new());
            scan_preds(b, &mut pb);
            scan_preds(m, &mut pm);
            for ((table, x), (_, y)) in pb.iter().zip(&pm) {
                if table.columns()[x.col as usize].ends_with("date") {
                    let d = y.lo - x.lo;
                    assert_eq!(y.hi - x.hi, d);
                    assert_eq!(*days.get_or_insert(d), d);
                } else {
                    assert_eq!(x, y);
                }
            }
        }
        assert!(days.is_some_and(|d| (1..=60).contains(&d)), "{days:?}");
    }
}
