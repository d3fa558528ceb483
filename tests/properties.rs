//! Property-style tests on the core invariants, spanning crates.
//!
//! Cases are generated with the workspace's own deterministic [`Rng64`]
//! (the build environment is offline, so no `proptest`): each test draws a
//! fixed number of random cases from a seeded stream, which keeps failures
//! reproducible — rerun with the same seed and the same cases appear.

use stca_repro::cachesim::{AccessKind, CacheGeometry, Hierarchy, HierarchyConfig};
use stca_repro::cat::layout::{private_regions_disjoint, sharing_degree_bounded};
use stca_repro::cat::{AllocationSetting, CapacityBitmask, PairLayout, ShortTermPolicy};
use stca_repro::queuesim::{QueueSim, StationConfig};
use stca_repro::util::{Distribution, Matrix, Rng64};

/// Any span inside the cache is a valid contiguous CBM, and the
/// (offset, length) representation round-trips.
#[test]
fn cbm_span_roundtrip() {
    let mut rng = Rng64::new(0xCB1);
    for _ in 0..256 {
        let ways = 1 + rng.next_below(64) as usize;
        let offset = rng.next_below(ways as u64) as usize;
        let len = 1 + rng.next_below((ways - offset) as u64) as usize;
        let cbm = CapacityBitmask::from_span(offset, len, ways).expect("valid span");
        assert_eq!(
            cbm.offset(),
            offset,
            "ways={ways} offset={offset} len={len}"
        );
        assert_eq!(cbm.length(), len);
        let alloc = AllocationSetting::from_cbm(&cbm);
        assert_eq!(alloc.to_cbm(ways).expect("still valid"), cbm);
    }
}

/// Masks with a hole are always rejected.
#[test]
fn cbm_rejects_holes() {
    let mut rng = Rng64::new(0xCB2);
    for _ in 0..256 {
        let lo_len = 1 + rng.next_below(7) as usize;
        let gap = 1 + rng.next_below(7) as usize;
        let hi_len = 1 + rng.next_below(7) as usize;
        let bits = ((1u64 << lo_len) - 1) | (((1u64 << hi_len) - 1) << (lo_len + gap));
        let ways = lo_len + gap + hi_len;
        assert!(
            CapacityBitmask::new(bits, ways.max(1)).is_err(),
            "hole must be rejected: lo={lo_len} gap={gap} hi={hi_len}"
        );
    }
}

/// Conjectures 1 and 2 of §2 hold for every well-formed pair layout.
#[test]
fn pair_layout_conjectures() {
    let mut rng = Rng64::new(0xCB3);
    for _ in 0..256 {
        let private_a = 1 + rng.next_below(5) as usize;
        let shared = rng.next_below(6) as usize;
        let private_b = 1 + rng.next_below(5) as usize;
        let ta = rng.next_range(0.0, 6.0);
        let tb = rng.next_range(0.0, 6.0);
        let layout = PairLayout {
            base_way: 0,
            private_a,
            shared,
            private_b,
        };
        let (pa, pb) = layout.policies(ta, tb);
        assert!(private_regions_disjoint(&[pa, pb]));
        assert!(sharing_degree_bounded(&[pa, pb]));
    }
}

/// Queueing simulator invariants: responses positive, response >=
/// service for each query, work conserved.
#[test]
fn queuesim_invariants() {
    let mut rng = Rng64::new(0xCB4);
    for _ in 0..24 {
        let util = rng.next_range(0.1, 0.95);
        let timeout = rng.next_range(0.0, 6.0);
        let boost = rng.next_range(1.0, 4.0);
        let seed = rng.next_below(1000);
        let cfg = StationConfig {
            inter_arrival: Distribution::Exponential {
                mean: 1.0 / (2.0 * util),
            },
            service: Distribution::Exponential { mean: 1.0 },
            expected_service: 1.0,
            timeout_ratio: timeout,
            boost_rate: boost,
            servers: 2,
            measured_queries: 300,
            warmup_queries: 30,
        };
        let r = QueueSim::new(cfg, seed).run();
        assert_eq!(r.response_times.len(), 300);
        for ((resp, serv), delay) in r
            .response_times
            .iter()
            .zip(&r.service_times)
            .zip(&r.queue_delays)
        {
            assert!(*resp > 0.0);
            assert!(*serv > 0.0);
            assert!(*delay >= 0.0);
            assert!(
                resp + 1e-9 >= serv + delay,
                "resp {resp} >= serv {serv} + delay {delay}"
            );
        }
        assert!(r.boosted_busy_time <= r.busy_time + 1e-9);
    }
}

/// A boost can only help (or leave unchanged) mean service time.
#[test]
fn boost_never_slows_service() {
    let mut rng = Rng64::new(0xCB5);
    for _ in 0..16 {
        let timeout = rng.next_range(0.0, 3.0);
        let seed = rng.next_below(200);
        let mk = |rate: f64| {
            let cfg = StationConfig {
                inter_arrival: Distribution::Exponential { mean: 1.0 },
                service: Distribution::Exponential { mean: 0.8 },
                expected_service: 0.8,
                timeout_ratio: timeout,
                boost_rate: rate,
                servers: 2,
                measured_queries: 400,
                warmup_queries: 40,
            };
            QueueSim::new(cfg, seed).run().mean_service()
        };
        let plain = mk(1.0);
        let boosted = mk(2.0);
        assert!(
            boosted <= plain * 1.02,
            "boost 2x cannot slow service: {boosted} vs {plain}"
        );
    }
}

/// Distribution scaling preserves shape: scaled mean matches target.
#[test]
fn distribution_scaling() {
    let mut rng = Rng64::new(0xCB6);
    for _ in 0..128 {
        let mean = rng.next_range(0.01, 100.0);
        let target = rng.next_range(0.01, 100.0);
        let d = Distribution::LogNormal { mean, sigma: 0.4 };
        let s = d.scaled_to_mean(target);
        assert!((s.mean() - target).abs() / target < 1e-9);
    }
}

/// Matrix hcat/select_rows preserve contents.
#[test]
fn matrix_ops_preserve_values() {
    let mut case_rng = Rng64::new(0xCB7);
    for _ in 0..64 {
        let rows = 1 + case_rng.next_below(7) as usize;
        let cols_a = 1 + case_rng.next_below(5) as usize;
        let cols_b = 1 + case_rng.next_below(5) as usize;
        let mut rng = Rng64::new(42);
        let mk = |r: usize, c: usize, rng: &mut Rng64| {
            let mut m = Matrix::zeros(r, c);
            for i in 0..r {
                for j in 0..c {
                    m[(i, j)] = rng.next_f64();
                }
            }
            m
        };
        let a = mk(rows, cols_a, &mut rng);
        let b = mk(rows, cols_b, &mut rng);
        let c = a.hcat(&b);
        for i in 0..rows {
            for j in 0..cols_a {
                assert_eq!(c[(i, j)], a[(i, j)]);
            }
            for j in 0..cols_b {
                assert_eq!(c[(i, cols_a + j)], b[(i, j)]);
            }
        }
        let sel = c.select_rows(&[rows - 1, 0]);
        assert_eq!(sel.row(0), c.row(rows - 1));
        assert_eq!(sel.row(1), c.row(0));
    }
}

/// Cache-hierarchy invariant: with disjoint LLC masks, neither workload
/// ever evicts the other's lines, for arbitrary split points.
#[test]
fn disjoint_masks_never_interfere() {
    let mut case_rng = Rng64::new(0xCB8);
    for _ in 0..8 {
        let split = 2 + case_rng.next_below(5) as usize;
        let seed = case_rng.next_below(50);
        let config = HierarchyConfig {
            l1d: CacheGeometry::new(512, 2, 64),
            l1i: CacheGeometry::new(512, 2, 64),
            l2: CacheGeometry::new(2048, 4, 64),
            llc: CacheGeometry::new(8192, 8, 64),
            latencies: Default::default(),
        };
        let mut h = Hierarchy::new(config, seed);
        h.set_llc_mask(
            0,
            AllocationSetting::new(0, split).to_cbm(8).expect("valid"),
        );
        h.set_llc_mask(
            1,
            AllocationSetting::new(split, 8 - split)
                .to_cbm(8)
                .expect("valid"),
        );
        let mut rng = Rng64::new(seed);
        for _ in 0..4000 {
            let w = rng.next_below(2) as u32;
            let addr = ((w as u64) << 40) | (rng.next_below(256) * 64);
            let kind = if rng.next_bool(0.3) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            h.access(w, addr, kind);
        }
        for w in 0..2u32 {
            let c = h.counters_of(w);
            assert_eq!(c.get(stca_repro::cachesim::Counter::LlcEvictionsCaused), 0);
            assert_eq!(
                c.get(stca_repro::cachesim::Counter::LlcEvictionsSuffered),
                0
            );
        }
    }
}

/// Occupancy never exceeds what the mask allows.
#[test]
fn occupancy_bounded_by_mask() {
    let mut case_rng = Rng64::new(0xCB9);
    for _ in 0..8 {
        let ways_allowed = 1 + case_rng.next_below(7) as usize;
        let seed = case_rng.next_below(50);
        let config = HierarchyConfig {
            l1d: CacheGeometry::new(512, 2, 64),
            l1i: CacheGeometry::new(512, 2, 64),
            l2: CacheGeometry::new(2048, 4, 64),
            llc: CacheGeometry::new(8192, 8, 64), // 16 sets x 8 ways
            latencies: Default::default(),
        };
        let mut h = Hierarchy::new(config, seed);
        h.set_llc_mask(
            0,
            AllocationSetting::new(0, ways_allowed)
                .to_cbm(8)
                .expect("valid"),
        );
        let mut rng = Rng64::new(seed ^ 1);
        for _ in 0..5000 {
            h.access(0, rng.next_below(1024) * 64, AccessKind::Load);
        }
        assert!(h.llc_occupancy(0) <= (ways_allowed * 16) as u64);
    }
}

/// Policies built from layouts always produce valid CBMs on the target
/// cache (deterministic test over the full grid).
#[test]
fn layout_policies_always_valid_on_e5() {
    let ways = 20;
    for private in 1..=4 {
        for shared in 0..=4 {
            let layout = PairLayout::symmetric(private, shared);
            let (pa, pb) = layout.policies(1.0, 1.0);
            for p in [pa, pb] {
                assert!(p.default.to_cbm(ways).is_ok());
                assert!(p.boosted.to_cbm(ways).is_ok());
            }
        }
    }
}

/// Shared-boost semantics matter: a static policy equals a never-boost STAP.
#[test]
fn static_policy_equals_never_boost() {
    let mk = |p: ShortTermPolicy| {
        let cfg = StationConfig {
            inter_arrival: Distribution::Exponential { mean: 1.0 },
            service: Distribution::Exponential { mean: 0.7 },
            expected_service: 0.7,
            timeout_ratio: p.timeout_ratio,
            boost_rate: if p.boost_enabled() { 2.0 } else { 1.0 },
            servers: 2,
            measured_queries: 500,
            warmup_queries: 50,
        };
        QueueSim::new(cfg, 7).run().mean_response()
    };
    let static_only = ShortTermPolicy::static_only(AllocationSetting::new(0, 2));
    let never = ShortTermPolicy::new(
        AllocationSetting::new(0, 2),
        AllocationSetting::new(0, 4),
        6.0,
    );
    assert_eq!(mk(static_only), mk(never));
}

/// The circuit breaker never drops a request on the floor: every `decide`
/// call yields exactly one verdict under arbitrary success/failure
/// sequences, and the state machine honours its thresholds — `Closed`
/// always admits, `Open` before its cooldown always rejects, and exactly
/// `failure_threshold` consecutive failures trip it.
#[test]
fn breaker_state_machine_invariants() {
    use stca_repro::serve::{BreakerConfig, BreakerState, CircuitBreaker, Verdict};
    let mut rng = Rng64::new(0xB4EA);
    for case in 0..64 {
        let cfg = BreakerConfig {
            failure_threshold: 1 + rng.next_below(6) as u32,
            cooldown_s: 0.1 + rng.next_f64(),
            probe_fraction: rng.next_f64(),
            success_to_close: 1 + rng.next_below(4) as u32,
            seed: 0x5EED ^ case,
        };
        let mut br = CircuitBreaker::new(cfg);
        let mut now = 0.0;
        let mut answered = 0u64;
        let n = 2_000u64;
        for i in 0..n {
            now += rng.next_f64() * 0.2;
            let state_before = br.state();
            let v = br.decide(now, i);
            // allow() is pure: same inputs, same verdict
            assert_eq!(br.allow(now, i), v, "case {case} call {i}");
            match state_before {
                BreakerState::Closed { .. } => {
                    assert_eq!(v, Verdict::Admit, "closed always admits")
                }
                BreakerState::Open { until, .. } if now < until => {
                    assert_eq!(v, Verdict::Reject, "cooling open always rejects")
                }
                BreakerState::Open { .. } => {
                    assert_ne!(v, Verdict::Admit, "expired open probes or rejects")
                }
            }
            match v {
                Verdict::Admit | Verdict::Probe => {
                    if rng.next_bool(0.3) {
                        br.record_failure(now);
                    } else {
                        br.record_success(now);
                    }
                    answered += 1;
                }
                // a rejected call short-circuits to the degraded tier:
                // still answered, never lost
                Verdict::Reject => answered += 1,
            }
        }
        assert_eq!(answered, n, "case {case}: every call got one verdict");
        assert!(
            br.closes <= br.opens,
            "case {case}: cannot close more than opened"
        );
        if br.opens == 0 {
            assert_eq!(br.probes + br.rejects, 0, "case {case}");
        }
    }
}

/// Fresh failures from `Closed` trip the breaker after exactly
/// `failure_threshold` consecutive failures — no sooner, regardless of
/// interleaved successes.
#[test]
fn breaker_trips_on_exactly_k_consecutive_failures() {
    use stca_repro::serve::{BreakerConfig, CircuitBreaker};
    let mut rng = Rng64::new(0xB4EB);
    for _ in 0..32 {
        let k = 1 + rng.next_below(8) as u32;
        let cfg = BreakerConfig {
            failure_threshold: k,
            ..BreakerConfig::default()
        };
        let mut br = CircuitBreaker::new(cfg);
        let mut now = 0.0;
        // interleave short failure bursts (below k) with successes: never trips
        for _ in 0..20 {
            for _ in 0..k - 1 {
                now += 0.01;
                br.record_failure(now);
            }
            now += 0.01;
            br.record_success(now);
        }
        assert_eq!(br.opens, 0, "k-1 bursts must not trip (k={k})");
        for _ in 0..k {
            now += 0.01;
            br.record_failure(now);
        }
        assert_eq!(br.opens, 1, "k consecutive failures trip (k={k})");
        assert!(br.is_open_at(now));
    }
}

/// The serving loop's accounting invariant holds for arbitrary
/// configurations and fault plans: every offered request ends in exactly
/// one disposition.
#[test]
fn serving_accounting_balances_for_arbitrary_configs() {
    use stca_repro::serve::{serve, AnalyticEa, OverloadPolicy, ServeConfig, SyntheticStream};
    let mut rng = Rng64::new(0x5E44E);
    for case in 0..12 {
        let overload = match rng.next_below(3) {
            0 => OverloadPolicy::ShedNewest,
            1 => OverloadPolicy::ShedOldest,
            _ => OverloadPolicy::Block,
        };
        let cfg = ServeConfig {
            servers: 1 + rng.next_below(4) as usize,
            queue_capacity: 1 + rng.next_below(32) as usize,
            overload,
            hysteresis_k: 1 + rng.next_below(8) as u32,
            drain_grace_s: rng.next_f64() * 5.0,
            ..ServeConfig::default()
        };
        let plan = stca_repro::fault::FaultPlan::parse(&format!(
            "predict_fail={:.2},stall={:.2},latency=0.15,seed={}",
            rng.next_f64() * 0.5,
            rng.next_f64() * 0.2,
            case
        ))
        .expect("valid plan spec");
        let stream = SyntheticStream {
            seed: 0xA5 ^ case,
            rate: 20.0 + rng.next_f64() * 800.0,
            deadline_s: 0.05 + rng.next_f64(),
            n_features: 4,
        };
        let n = 2_000;
        let r = serve(&cfg, &AnalyticEa::default(), &plan, &stream, n)
            .expect("arbitrary valid config serves");
        assert!(
            r.accounting.balanced(),
            "case {case} ({:?}): {:?}",
            overload,
            r.accounting
        );
        assert_eq!(r.accounting.admitted, n, "case {case}");
        if matches!(overload, OverloadPolicy::Block) {
            assert_eq!(
                r.accounting.shed_overload, 0,
                "case {case}: block never sheds at admission"
            );
        }
    }
}
