//! Deterministic seeded load generation.
//!
//! One [`TenantLoad`] per tenant turns its [`ArrivalModel`] into a
//! stream of [`Submission`]s in virtual time. Everything is integer
//! arithmetic over a splitmix64 stream — no transcendentals, no wall
//! clock — so the same `(seed, config)` yields the same submissions on
//! every platform and at every thread count.

use crate::config::{ArrivalModel, TenantSpec};
use crate::transport::Submission;
use assasin_sim::{SimDur, SimTime};

/// Sebastiano Vigna's splitmix64: a full-period 64-bit stream from any
/// seed (including 0), two multiplies and three xor-shifts per draw.
/// Same finalizer the flash fault model uses for per-page draws.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded from `seed` (any value, 0 included).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives tenant `i`'s private stream from the run seed, so adding a
/// tenant never perturbs the arrival pattern of existing ones.
fn tenant_seed(run_seed: u64, tenant: usize) -> u64 {
    // One splitmix step over (seed ^ f(tenant)) decorrelates streams.
    SplitMix64::new(run_seed ^ (tenant as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

#[derive(Debug)]
struct Client {
    /// Next submission instant; `None` while awaiting a response.
    next: Option<SimTime>,
    /// Submissions this client still gets to make (rejections count —
    /// every attempt consumes one, which guarantees termination).
    left: u32,
}

#[derive(Debug)]
enum LoadKind {
    Open {
        mean_gap: SimDur,
        next: SimTime,
        left: u32,
    },
    Closed {
        think: SimDur,
        clients: Vec<Client>,
    },
}

/// One tenant's arrival process, advanced by the server's event loop.
#[derive(Debug)]
pub struct TenantLoad {
    tenant: usize,
    rng: SplitMix64,
    /// `(workload, running total of pick weights up to and including it)`.
    mix: Vec<(usize, u64)>,
    mix_total: u64,
    kind: LoadKind,
}

impl TenantLoad {
    /// Builds tenant `tenant`'s load source from its spec and the run
    /// seed.
    pub fn new(run_seed: u64, tenant: usize, spec: &TenantSpec) -> Self {
        let mut rng = SplitMix64::new(tenant_seed(run_seed, tenant));
        let mut mix_total = 0;
        let mix = (spec.mix.iter())
            .map(|&(workload, weight)| {
                mix_total += weight as u64;
                (workload, mix_total)
            })
            .collect();
        let kind = match spec.arrival {
            ArrivalModel::Open { mean_gap, requests } => {
                let next = SimTime::ZERO + jittered_gap(&mut rng, mean_gap);
                LoadKind::Open {
                    mean_gap,
                    next,
                    left: requests,
                }
            }
            ArrivalModel::Closed {
                concurrency,
                think,
                requests_per_client,
            } => {
                // Each client starts at a seeded offset in [0, think], so
                // a fleet of clients does not arrive as one synchronized
                // burst at t = 0.
                let clients = (0..concurrency)
                    .map(|_| {
                        let start = SimTime::ZERO + jittered_start(&mut rng, think);
                        Client {
                            next: Some(start),
                            left: requests_per_client,
                        }
                    })
                    .collect();
                LoadKind::Closed { think, clients }
            }
        };
        TenantLoad {
            tenant,
            rng,
            mix,
            mix_total,
            kind,
        }
    }

    /// Earliest scheduled submission instant, if any.
    pub fn peek(&self) -> Option<SimTime> {
        match &self.kind {
            LoadKind::Open { next, left, .. } => (*left > 0).then_some(*next),
            LoadKind::Closed { clients, .. } => clients.iter().filter_map(|c| c.next).min(),
        }
    }

    /// Pops the earliest scheduled submission (ties between clients break
    /// by lowest client id) and advances the schedule.
    pub fn pop(&mut self) -> Option<Submission> {
        let at = self.peek()?;
        let client = match &mut self.kind {
            LoadKind::Open {
                mean_gap,
                next,
                left,
            } => {
                *left -= 1;
                *next = at + jittered_gap(&mut self.rng, *mean_gap);
                0
            }
            LoadKind::Closed { clients, .. } => {
                let idx = clients
                    .iter()
                    .position(|c| c.next == Some(at))
                    .expect("peeked instant belongs to a client");
                let c = &mut clients[idx];
                c.left -= 1;
                c.next = None;
                idx as u32
            }
        };
        let workload = self.draw_workload();
        Some(Submission {
            tenant: self.tenant,
            client,
            workload,
            arrival: at,
        })
    }

    /// Feeds a response (completion *or* rejection) back at time `at`:
    /// closed-loop clients think and resubmit; open-loop arrivals ignore
    /// responses by construction.
    pub fn on_response(&mut self, client: u32, at: SimTime) {
        if let LoadKind::Closed { think, clients } = &mut self.kind {
            let c = &mut clients[client as usize];
            if c.left > 0 {
                c.next = Some(at + *think);
            }
        }
    }

    /// The first mix entry whose running total exceeds the draw — the
    /// entries are counted without branching on the draw.
    fn draw_workload(&mut self) -> usize {
        let pick = self.rng.next_u64() % self.mix_total;
        self.mix[self.mix.iter().filter(|&&(_, upto)| upto <= pick).count()].0
    }
}

/// A seeded-uniform gap in `[mean/2, 3*mean/2)` — mean-preserving jitter
/// without floats (a zero mean degrades to back-to-back arrivals).
fn jittered_gap(rng: &mut SplitMix64, mean: SimDur) -> SimDur {
    let mean_ps = mean.as_ps();
    if mean_ps == 0 {
        return SimDur::ZERO;
    }
    SimDur::from_ps(mean_ps / 2 + rng.next_u64() % mean_ps)
}

/// A seeded start offset in `[0, think]`.
fn jittered_start(rng: &mut SplitMix64, think: SimDur) -> SimDur {
    SimDur::from_ps(rng.next_u64() % (think.as_ps() + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn open_spec(mean_us: u64, requests: u32) -> TenantSpec {
        TenantSpec::new(
            "t",
            8,
            ArrivalModel::Open {
                mean_gap: SimDur::from_us(mean_us),
                requests,
            },
        )
    }

    fn drain_open(seed: u64) -> Vec<(u64, usize)> {
        let mut load = TenantLoad::new(seed, 0, &open_spec(10, 50));
        let mut out = Vec::new();
        while let Some(sub) = load.pop() {
            out.push((sub.arrival.as_ps(), sub.workload));
        }
        out
    }

    #[test]
    fn same_seed_same_arrivals_different_seed_different() {
        let a = drain_open(7);
        let b = drain_open(7);
        let c = drain_open(8);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn open_gaps_stay_in_the_jitter_band() {
        let arrivals = drain_open(42);
        let mean = SimDur::from_us(10).as_ps();
        let mut prev = 0u64;
        for (at, _) in arrivals {
            let gap = at - prev;
            assert!(
                (mean / 2..mean / 2 + mean).contains(&gap),
                "gap {gap} outside [{}, {})",
                mean / 2,
                mean / 2 + mean
            );
            prev = at;
        }
    }

    #[test]
    fn closed_loop_waits_for_responses_and_terminates() {
        let spec = TenantSpec::new(
            "t",
            8,
            ArrivalModel::Closed {
                concurrency: 2,
                think: SimDur::from_us(5),
                requests_per_client: 3,
            },
        );
        let mut load = TenantLoad::new(1, 0, &spec);
        let mut served = 0u32;
        while let Some(at) = load.peek() {
            let sub = load.pop().unwrap();
            assert_eq!(sub.arrival, at);
            served += 1;
            // Respond immediately (a rejection counts the same).
            load.on_response(sub.client, at + SimDur::from_us(1));
        }
        assert_eq!(served, 6, "2 clients x 3 requests each");
        // Both clients exhausted: no resubmission even after a response.
        load.on_response(0, SimTime::from_us(999));
        assert_eq!(load.peek(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn counted_mix_draws_match_the_subtractive_scan(
            (seed, mix) in (any::<u64>(), proptest::collection::vec((0usize..8, 0u32..=5), 1..8)),
        ) {
            let mut mix = mix;
            mix[0].1 += 1;
            let total: u64 = mix.iter().map(|(_, w)| *w as u64).sum();
            let mean = SimDur::from_us(3);
            let mut load = TenantLoad::new(seed, 0, &open_spec(3, 300).with_mix(mix.clone()));
            // The previous draw: subtract pick weights until one covers it.
            let mut rng = SplitMix64::new(tenant_seed(seed, 0));
            let mut next = SimTime::ZERO + jittered_gap(&mut rng, mean);
            while let Some(sub) = load.pop() {
                let at = next;
                next = at + jittered_gap(&mut rng, mean);
                let mut pick = rng.next_u64() % total;
                let mut want = None;
                for &(workload, weight) in &mix {
                    if pick < weight as u64 {
                        want = Some(workload);
                        break;
                    }
                    pick -= weight as u64;
                }
                prop_assert_eq!((sub.arrival, Some(sub.workload)), (at, want));
            }
        }
    }

    #[test]
    fn mix_draws_cover_all_workloads_deterministically() {
        let spec = open_spec(10, 200).with_mix(vec![(0, 1), (2, 3)]);
        let mut load = TenantLoad::new(3, 0, &spec);
        let mut counts = [0u32; 3];
        while let Some(sub) = load.pop() {
            counts[sub.workload] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[0] > 0 && counts[2] > counts[0]);
        assert_eq!(counts[0] + counts[2], 200);
    }
}
