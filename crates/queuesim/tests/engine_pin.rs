//! Byte pins on the queueing simulator's event loop.
//!
//! The perfbench digests drive `QueueSim` only through the explorer's
//! station and the serving fleet's validation runs. These tests fold every
//! field of a [`BudgetedRun`] (event count, exhaustion, quarantine count,
//! and the bits of every `SimResult` vector and scalar) into an FNV-64
//! hash and compare it against a constant. Every run uses the paper's
//! service-wide boost, the simulator's only boost scope, over a matrix of:
//!
//! * the serving timeout grid `[0.25, 0.75, 1.5, 3.0, 6.0]`, whose last
//!   entry is the never-boost bound, plus a zero timeout that boosts every
//!   query on arrival;
//! * Exponential, Deterministic and HyperExp service;
//! * 1, 2 and 4 servers;
//! * unlimited, 200-event and 4000-event budgets.
//!
//! Any change to the event loop's bookkeeping must keep these hashes.

use stca_cat::stap::NEVER_BOOST_RATIO;
use stca_queuesim::{BudgetedRun, QueueSim, RunBudget, StationConfig};
use stca_util::Distribution;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        for v in vs {
            self.word(v.to_bits());
        }
    }

    fn run(&mut self, run: &BudgetedRun) {
        self.word(run.events);
        self.word(u64::from(run.exhausted));
        self.word(run.quarantined);
        let r = &run.result;
        self.floats(&r.response_times);
        self.floats(&r.queue_delays);
        self.floats(&r.service_times);
        self.word(r.boosted.len() as u64);
        for &b in &r.boosted {
            self.word(u64::from(b));
        }
        self.word(r.makespan.to_bits());
        self.word(r.boosted_busy_time.to_bits());
        self.word(r.busy_time.to_bits());
    }
}

/// The serving timeout grid (`stca_serve::TIMEOUT_GRID`), led by a zero
/// timeout. The last entry is the never-boost bound.
const RATIOS: [f64; 6] = [0.0, 0.25, 0.75, 1.5, 3.0, NEVER_BOOST_RATIO];

const BUDGETS: [Option<u64>; 3] = [None, Some(200), Some(4000)];

fn services() -> [(&'static str, Distribution); 3] {
    [
        ("exp", Distribution::Exponential { mean: 1.0 }),
        ("det", Distribution::Deterministic(1.0)),
        (
            "hyperexp",
            Distribution::HyperExp {
                p: 0.1,
                mean_a: 5.5,
                mean_b: 0.5,
            },
        ),
    ]
}

/// Hash every run of the matrix for one service.
fn matrix_hash(service: &Distribution) -> u64 {
    let mut h = Fnv::new();
    let mut seed = 0x51A7_u64;
    let (mut exhausted, mut boosted) = (0, 0);
    for servers in [1usize, 2, 4] {
        for ratio in RATIOS {
            for budget in BUDGETS {
                seed += 1;
                let config = StationConfig {
                    // utilization 0.85: queues build, so queued queries cross
                    // their timeout before service starts
                    inter_arrival: Distribution::Exponential {
                        mean: 1.0 / (0.85 * servers as f64),
                    },
                    service: service.clone(),
                    expected_service: 1.0,
                    timeout_ratio: ratio,
                    boost_rate: 1.8,
                    servers,
                    measured_queries: 600,
                    warmup_queries: 60,
                };
                let budget = match budget {
                    Some(n) => RunBudget::events(n),
                    None => RunBudget::unlimited(),
                };
                let run = QueueSim::new(config, seed).run_budgeted(budget);
                exhausted += usize::from(run.exhausted);
                boosted += run.result.boosted.iter().filter(|&&b| b).count();
                h.run(&run);
            }
        }
    }
    // the matrix must reach both the budget stop and the boost path
    assert!(exhausted > 0 && boosted > 0, "{exhausted} {boosted}");
    h.0
}

#[test]
fn shared_boost_runs_are_pinned() {
    let want: [u64; 3] = [
        0xdce8_18ca_0417_0342,
        0x8287_81ce_9d54_3978,
        0x6dcb_ef72_a1fb_47f0,
    ];
    let got: Vec<(&str, u64)> = services()
        .iter()
        .map(|(name, service)| (*name, matrix_hash(service)))
        .collect();
    let hashes: Vec<u64> = got.iter().map(|&(_, h)| h).collect();
    assert_eq!(hashes, want, "got {got:#018x?}");
}
