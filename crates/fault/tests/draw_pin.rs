//! Byte pins on every fault draw and on the presets.
//!
//! Every per-sample draw of a [`FaultInjector`] is a pure function of
//! `(plan seed, run key, attempt, component, tag)`. The serving fleet's
//! decision hashes and the profiler's fault-injected datasets depend on
//! every one of those bits, so each component's draws over tags
//! `0..4096`, at two `(run_key, attempt)` pairs under
//! [`FaultPlan::heavy`], are folded into one FNV-64 hash and compared
//! against a constant. The per-(shard, epoch) rolls are pinned the same
//! way over shards `0..8` × epochs `0..512`, the run-level draws over a
//! range of run keys and attempts, and every preset's value of every key
//! as text. A change to how the plan is declared or how it derives its
//! streams must keep these pins.

use stca_fault::{FaultInjector, FaultPlan, SampleFault, StcaError};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const TAGS: u64 = 4096;
/// Values per corrupt row and noise vector: the profiler's counter width
/// is larger, but four draws already cover the stream past its first
/// output.
const ROW: usize = 4;

fn injectors() -> [FaultInjector; 2] {
    let plan = FaultPlan::heavy();
    [
        plan.injector(0x5E4E ^ 2022, 0),
        plan.injector(0xDEAD_BEEF, 1),
    ]
}

/// Fold `draw(injector, tag)` over both injectors and every tag.
fn fold(draw: impl Fn(&FaultInjector, u64, &mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    for inj in &injectors() {
        for tag in 0..TAGS {
            draw(inj, tag, &mut h);
        }
    }
    h.0
}

#[test]
fn predict_fault_draws_are_pinned() {
    let h = fold(|inj, tag, h| h.word(u64::from(inj.predict_fault(tag))));
    assert_eq!(
        h, 0x13f7_c3d4_aba0_9e45,
        "predict_fault draws moved: {h:#018x}"
    );
}

#[test]
fn stage_stall_draws_are_pinned() {
    let h = fold(|inj, tag, h| h.word(inj.stage_stall_s(tag).to_bits()));
    assert_eq!(
        h, 0x6687_35bc_9ef0_4f98,
        "stage_stall_s draws moved: {h:#018x}"
    );
}

#[test]
fn sample_fault_draws_are_pinned() {
    let h = fold(|inj, tag, h| {
        h.word(match inj.sample_fault(tag) {
            SampleFault::None => 0,
            SampleFault::Drop => 1,
            SampleFault::Corrupt => 2,
            SampleFault::Stuck => 3,
        })
    });
    assert_eq!(
        h, 0xd681_5066_c33a_4626,
        "sample_fault draws moved: {h:#018x}"
    );
}

#[test]
fn corrupt_row_draws_are_pinned() {
    let h = fold(|inj, tag, h| {
        for v in inj.corrupt_row(tag, ROW) {
            h.word(v);
        }
    });
    assert_eq!(
        h, 0xe88c_c9bc_ccf4_25f0,
        "corrupt_row draws moved: {h:#018x}"
    );
}

#[test]
fn noise_factor_draws_are_pinned() {
    let h = fold(|inj, tag, h| {
        for v in inj.noise_factors(tag, ROW) {
            h.word(v.to_bits());
        }
    });
    assert_eq!(
        h, 0xd136_06a1_ccbd_591b,
        "noise_factors draws moved: {h:#018x}"
    );
}

const SHARDS: u32 = 8;
const EPOCHS: u64 = 512;

/// Fold `roll(plan, shard, epoch)` over every shard and epoch under
/// [`FaultPlan::heavy`].
fn fold_shards(roll: impl Fn(&FaultPlan, u32, u64) -> u64) -> u64 {
    let plan = FaultPlan::heavy();
    let mut h = Fnv::new();
    for shard in 0..SHARDS {
        for epoch in 0..EPOCHS {
            h.word(roll(&plan, shard, epoch));
        }
    }
    h.0
}

#[test]
fn shard_crash_rolls_are_pinned() {
    let h = fold_shards(|p, s, e| u64::from(p.shard_crash(s, e)));
    assert_eq!(
        h, 0x7317_60e6_cf20_72a5,
        "shard_crash rolls moved: {h:#018x}"
    );
}

#[test]
fn shard_flap_rolls_are_pinned() {
    let h = fold_shards(|p, s, e| u64::from(p.shard_flap(s, e)));
    assert_eq!(
        h, 0xa3b8_2d8c_acba_eec5,
        "shard_flap rolls moved: {h:#018x}"
    );
}

#[test]
fn shard_stall_rolls_are_pinned() {
    let h = fold_shards(|p, s, e| p.shard_stall_s(s, e, 5.0).to_bits());
    assert_eq!(
        h, 0xfe7a_65d6_5451_0733,
        "shard_stall_s rolls moved: {h:#018x}"
    );
}

#[test]
fn drift_burst_rolls_are_pinned() {
    let h = fold_shards(|p, s, e| p.drift_burst_offset(s, e).to_bits());
    assert_eq!(
        h, 0x5f2a_60bb_c5e6_a6cd,
        "drift_burst_offset rolls moved: {h:#018x}"
    );
}

#[test]
fn retrain_fail_rolls_are_pinned() {
    let h = fold_shards(|p, s, e| u64::from(p.retrain_fail(s, e)));
    assert_eq!(
        h, 0xf579_2b20_a4c8_9724,
        "retrain_fail rolls moved: {h:#018x}"
    );
}

#[test]
fn retrain_slow_rolls_are_pinned() {
    let h = fold_shards(|p, s, e| p.retrain_slow_s(s, e, 1.0).to_bits());
    assert_eq!(
        h, 0xf2b1_1b53_8986_f0bf,
        "retrain_slow_s rolls moved: {h:#018x}"
    );
}

#[test]
fn promote_corrupt_rolls_are_pinned() {
    let h = fold_shards(|p, s, e| u64::from(p.promote_corrupt(s, e)));
    assert_eq!(
        h, 0x8340_1cd3_3858_5645,
        "promote_corrupt rolls moved: {h:#018x}"
    );
}

const RUN_KEYS: u64 = 1024;
const ATTEMPTS: u32 = 4;

/// Fold `draw(injector)` over 1024 run keys (`0..1024` times an odd
/// multiplier, so the high bits vary too) and attempts `0..4` under
/// [`FaultPlan::heavy`].
fn fold_attempts(draw: impl Fn(&FaultInjector, &mut Fnv)) -> u64 {
    let plan = FaultPlan::heavy();
    let mut h = Fnv::new();
    for key in 0..RUN_KEYS {
        for attempt in 0..ATTEMPTS {
            draw(
                &plan.injector(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), attempt),
                &mut h,
            );
        }
    }
    h.0
}

#[test]
fn attempt_outcome_draws_are_pinned() {
    let h = fold_attempts(|inj, h| match inj.attempt_outcome() {
        Ok(()) => h.word(0),
        Err(StcaError::InjectedCrash { .. }) => h.word(1),
        Err(StcaError::InjectedTimeout { waited_s, .. }) => {
            h.word(2);
            h.word(waited_s.to_bits());
        }
        Err(e) => panic!("unexpected attempt outcome {e}"),
    });
    assert_eq!(
        h, 0xd58a_73d3_9520_dbe9,
        "attempt_outcome draws moved: {h:#018x}"
    );
}

#[test]
fn injected_latency_draws_are_pinned() {
    let h = fold_attempts(|inj, h| h.word(inj.injected_latency_s().to_bits()));
    assert_eq!(
        h, 0x9f08_b677_9bba_7d0a,
        "injected_latency_s draws moved: {h:#018x}"
    );
}

/// Every preset's value of every key, as `FaultPlan::get` renders it,
/// and the field order (`Debug` prints fields in declaration order).
#[test]
fn preset_values_are_pinned() {
    let text = |plan: FaultPlan| -> Vec<String> {
        FaultPlan::KEYS
            .iter()
            .map(|k| format!("{k}={}", plan.get(k).expect("known key")))
            .collect()
    };
    assert_eq!(
        text(FaultPlan::none()),
        [
            "seed=0",
            "crash=0",
            "timeout=0",
            "dropout=0",
            "corrupt=0",
            "stuck=0",
            "noise=0",
            "latency=0",
            "predict_fail=0",
            "stall=0",
            "shard_crash=0",
            "shard_stall=0",
            "shard_flap=0",
            "drift_burst=0",
            "retrain_fail=0",
            "retrain_slow=0",
            "promote_corrupt=0",
        ]
    );
    assert_eq!(
        text(FaultPlan::ci_default()),
        [
            "seed=49630",
            "crash=0.05",
            "timeout=0.02",
            "dropout=0.05",
            "corrupt=0.02",
            "stuck=0.02",
            "noise=0.01",
            "latency=0.05",
            "predict_fail=0.02",
            "stall=0.01",
            "shard_crash=0.05",
            "shard_stall=0.05",
            "shard_flap=0.05",
            "drift_burst=0.05",
            "retrain_fail=0.05",
            "retrain_slow=0.05",
            "promote_corrupt=0.05",
        ]
    );
    assert_eq!(
        text(FaultPlan::heavy()),
        [
            "seed=64017",
            "crash=0.15",
            "timeout=0.05",
            "dropout=0.1",
            "corrupt=0.05",
            "stuck=0.05",
            "noise=0.05",
            "latency=0.2",
            "predict_fail=0.2",
            "stall=0.05",
            "shard_crash=0.1",
            "shard_stall=0.1",
            "shard_flap=0.1",
            "drift_burst=0.2",
            "retrain_fail=0.1",
            "retrain_slow=0.1",
            "promote_corrupt=0.15",
        ]
    );
    assert_eq!(
        format!("{:?}", FaultPlan::heavy()),
        "FaultPlan { seed: 64017, crash_prob: 0.15, timeout_prob: 0.05, \
         dropout_prob: 0.1, corrupt_prob: 0.05, stuck_prob: 0.05, noise_rel: 0.05, \
         latency_mean_s: 0.2, predict_fail_prob: 0.2, stall_prob: 0.05, \
         shard_crash_prob: 0.1, shard_stall_prob: 0.1, shard_flap_prob: 0.1, \
         drift_burst_prob: 0.2, retrain_fail_prob: 0.1, retrain_slow_prob: 0.1, \
         promote_corrupt_prob: 0.15 }"
    );
}
