//! Byte pins on the per-sample fault draws.
//!
//! Every per-sample draw of a [`FaultInjector`] is a pure function of
//! `(plan seed, run key, attempt, component, tag)`. The serving fleet's
//! decision hashes and the profiler's fault-injected datasets depend on
//! every one of those bits, so each component's draws over tags
//! `0..4096`, at two `(run_key, attempt)` pairs under
//! [`FaultPlan::heavy`], are folded into one FNV-64 hash and compared
//! against a constant. A change to how the injector derives its streams
//! must keep these hashes.

use stca_fault::{FaultInjector, FaultPlan, SampleFault};

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
