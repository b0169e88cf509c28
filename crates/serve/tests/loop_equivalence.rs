//! The serving loop caches each tenant's next arrival and queue-head
//! arrival instead of re-deriving them every step, selects percentiles
//! instead of sorting, and charges the scheduler in `u64` when it can.
//! None of that may change a report. This suite pins it: random tenant
//! sets (1–6 tenants, open and closed loops, weights 1–4, depths 1–64,
//! random mixes and SLOs, memoization on and off) over a stub device with
//! random service costs must serialize to the same report bytes from
//! [`serve`] and from [`reference_serve`], a copy of the uncached loop
//! with sort-based percentiles. The stub's impure workloads change what
//! every later execution costs, so the same cases also pin that
//! memoization never replays a stale profile.

use assasin_serve::{
    serve, ArrivalModel, Instance, ServeConfig, ServeError, ServeReport, ServiceProfile,
    SplitMix64, TenantLoad, TenantQueues, TenantReport, TenantSpec, WeightedFair,
};
use assasin_sim::stats::{bps_to_gbps, throughput_bps};
use assasin_sim::{SimDur, SimTime};
use proptest::prelude::*;

/// A fake device: workload `w` costs `costs[w]` picoseconds plus one
/// nanosecond per earlier execution of an impure workload (the way a
/// write wears and remaps flash), and is memoizable when `pure[w]`.
#[derive(Clone)]
struct Stub {
    costs: Vec<u64>,
    pure: Vec<bool>,
    wear: u64,
    executions: u64,
}

impl Instance for Stub {
    fn workload_count(&self) -> usize {
        self.costs.len()
    }

    fn workload_name(&self, _workload: usize) -> &str {
        "stub"
    }

    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError> {
        self.executions += 1;
        let elapsed = SimDur::from_ps(self.costs[workload] + 1000 * self.wear);
        if !self.pure[workload] {
            self.wear += 1;
        }
        Ok(ServiceProfile {
            elapsed,
            bytes_in: 4096 * (workload as u64 + 1),
            bytes_out: 64 * workload as u64,
        })
    }

    fn memoizable(&self, workload: usize) -> bool {
        self.pure[workload]
    }
}

/// One tenant's accumulator in the reference loop.
#[derive(Default)]
struct Row {
    latencies_ps: Vec<u64>,
    submitted: u64,
    rejected: u64,
    slo_violations: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// The serving loop as it was before its event state was cached: every
/// step re-derives the next arrival and the earliest queue head by
/// scanning every tenant, and percentiles index the sorted latencies.
fn reference_serve(instance: &mut dyn Instance, cfg: &ServeConfig) -> ServeReport {
    cfg.validate().expect("generated configs are valid");
    let n = cfg.tenants.len();
    let mut loads: Vec<TenantLoad> = (0..n)
        .map(|i| TenantLoad::new(cfg.seed, i, &cfg.tenants[i]))
        .collect();
    let mut queues = TenantQueues::new(cfg.tenants.iter().map(|t| t.queue_depth).collect());
    let mut sched = WeightedFair::new(cfg.tenants.iter().map(|t| t.weight).collect());
    let mut rows: Vec<Row> = (0..n).map(|_| Row::default()).collect();
    let mut profiles: Vec<Option<ServiceProfile>> = vec![None; instance.workload_count()];
    let mut device_free = SimTime::ZERO;
    let mut device_busy = SimDur::ZERO;
    let mut last_completion = SimTime::ZERO;
    let (mut executions, mut total_completed, mut total_rejected) = (0u64, 0u64, 0u64);

    loop {
        let next_arrival = loads.iter().filter_map(|l| l.peek()).min();
        let head = queues.earliest_head();
        let admit_at = match (head, next_arrival) {
            (None, None) => break,
            (None, Some(at)) => Some(at),
            (Some(h), Some(at)) if at <= device_free.max(h) => Some(at),
            _ => None,
        };
        if let Some(at) = admit_at {
            for t in 0..n {
                while loads[t].peek() == Some(at) {
                    let sub = loads[t].pop().expect("peeked submission pops");
                    let admitted = queues.submit(sub).is_ok();
                    rows[t].submitted += 1;
                    if admitted {
                        sched.on_backlog(t);
                    } else {
                        rows[t].rejected += 1;
                        total_rejected += 1;
                        loads[t].on_response(sub.client, at);
                    }
                }
            }
            continue;
        }

        let dispatch_at = device_free.max(head.expect("admission handled the empty case"));
        let eligible = (0..n).filter(|&t| queues.head_arrival(t).is_some_and(|a| a <= dispatch_at));
        let tenant = sched.pick(eligible).expect("the earliest head is eligible");
        let sub = queues.pop(tenant).expect("picked tenant has queued work");
        if queues.backlog(tenant) == 0 {
            sched.on_drain(tenant);
        }
        let profile = match (cfg.memoize, profiles[sub.workload]) {
            (true, Some(p)) => p,
            _ => {
                let p = instance.execute(sub.workload).expect("stub never fails");
                if instance.memoizable(sub.workload) {
                    profiles[sub.workload] = Some(p);
                } else {
                    profiles.fill(None);
                }
                executions += 1;
                p
            }
        };

        let completion = dispatch_at + profile.elapsed;
        device_free = completion;
        device_busy += profile.elapsed;
        last_completion = last_completion.max(completion);
        total_completed += 1;
        sched.charge(tenant, profile.elapsed.as_ps());
        let latency = completion.since(sub.arrival);
        let row = &mut rows[tenant];
        row.latencies_ps.push(latency.as_ps());
        row.bytes_in += profile.bytes_in;
        row.bytes_out += profile.bytes_out;
        if cfg.tenants[tenant].slo.is_some_and(|slo| latency > slo) {
            row.slo_violations += 1;
        }
        loads[tenant].on_response(sub.client, completion);
    }

    let makespan = last_completion.since(SimTime::ZERO);
    let us = |ps: &u64| *ps as f64 * 1e-6;
    let tenants = rows
        .into_iter()
        .zip(&cfg.tenants)
        .map(|(mut r, spec)| {
            r.latencies_ps.sort_unstable();
            let rank = |p: usize| r.latencies_ps.len().saturating_sub(1) * p / 100;
            TenantReport {
                name: spec.name.clone(),
                weight: spec.weight,
                queue_depth: spec.queue_depth as u64,
                submitted: r.submitted,
                admitted: r.submitted - r.rejected,
                rejected: r.rejected,
                completed: r.latencies_ps.len() as u64,
                slo_violations: r.slo_violations,
                p50_us: r.latencies_ps.get(rank(50)).map(us),
                p99_us: r.latencies_ps.get(rank(99)).map(us),
                max_us: r.latencies_ps.last().map(us),
                bytes_in: r.bytes_in,
                bytes_out: r.bytes_out,
                achieved_gbps: throughput_bps(r.bytes_in, makespan).map(bps_to_gbps),
            }
        })
        .collect();
    ServeReport {
        seed: cfg.seed,
        makespan_us: makespan.as_ps() as f64 * 1e-6,
        device_busy_us: device_busy.as_ps() as f64 * 1e-6,
        utilization: (!makespan.is_zero())
            .then(|| device_busy.as_secs_f64() / makespan.as_secs_f64()),
        total_completed,
        total_rejected,
        executions,
        tenants,
    }
}

/// Uniform draws in `0..n` from one seeded stream.
struct Draw(SplitMix64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// A random stub device and serving config. Arrival gaps and think times
/// are scaled to the service costs so runs range from idle to heavily
/// overloaded; zero costs, gaps and think times all occur.
fn random_case(seed: u64) -> (Stub, ServeConfig) {
    let mut d = Draw(SplitMix64::new(seed));
    let workloads = 1 + d.below(4) as usize;
    let costs: Vec<u64> = (0..workloads)
        .map(|_| {
            if d.one_in(8) {
                0
            } else {
                1 + d.below(40_000_000)
            }
        })
        .collect();
    let pure = (0..workloads).map(|_| !d.one_in(4)).collect();
    let scale = costs.iter().copied().max().unwrap_or(0).max(1);
    let tenants = 1 + d.below(6) as usize;
    let specs = (0..tenants)
        .map(|i| {
            let arrival = if d.one_in(2) {
                ArrivalModel::Open {
                    mean_gap: SimDur::from_ps(if d.one_in(10) {
                        0
                    } else {
                        d.below(3 * scale * tenants as u64)
                    }),
                    requests: 1 + d.below(150) as u32,
                }
            } else {
                ArrivalModel::Closed {
                    concurrency: 1 + d.below(8) as u32,
                    think: SimDur::from_ps(if d.one_in(5) { 0 } else { d.below(2 * scale) }),
                    requests_per_client: 1 + d.below(20) as u32,
                }
            };
            let mut mix = Vec::new();
            for w in 0..workloads {
                if d.one_in(2) {
                    mix.push((w, 1 + d.below(5) as u32));
                }
            }
            if mix.is_empty() {
                mix.push((d.below(workloads as u64) as usize, 1));
            }
            let spec = TenantSpec::new(format!("t{i}"), 1 + d.below(64) as usize, arrival)
                .with_weight(1 + d.below(4) as u32)
                .with_mix(mix);
            if d.one_in(2) {
                spec.with_slo(SimDur::from_ps(1 + d.below(8 * scale)))
            } else {
                spec
            }
        })
        .collect();
    let mut cfg = ServeConfig::new(d.0.next_u64(), specs);
    cfg.memoize = !d.one_in(3);
    let stub = Stub {
        costs,
        pure,
        wear: 0,
        executions: 0,
    };
    (stub, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]
    #[test]
    fn cached_loop_matches_the_uncached_reference(seed in any::<u64>()) {
        let (stub, cfg) = random_case(seed);
        let mut fast = stub.clone();
        let mut unmemoized = stub.clone();
        let mut slow = stub;
        let got = serve(&mut fast, &cfg).expect("valid config");
        let want = reference_serve(&mut slow, &cfg);
        prop_assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
        prop_assert_eq!(fast.executions, slow.executions);
        prop_assert_eq!(got.executions, fast.executions);

        // Memoization only saves executions.
        let mut off = cfg.clone();
        off.memoize = false;
        let mut every = serve(&mut unmemoized, &off).expect("valid config");
        prop_assert_eq!(every.executions, every.total_completed);
        every.executions = got.executions;
        prop_assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&every).unwrap()
        );
    }
}
