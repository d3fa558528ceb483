//! Competing cache-allocation policies (the Figure-8 lineup).
//!
//! Each strategy produces a vector of [`ShortTermPolicy`]s for a collocated
//! pair. Strategies that need measurements (static-best, dCat, dynaSprint)
//! receive a [`PolicyEval`] callback that runs the pair under candidate
//! policies and reports per-workload normalized p95 response times — the
//! bench harness backs it with the real test environment, unit tests with
//! synthetic surfaces.

use stca_cat::{AllocationSetting, PairLayout, ShortTermPolicy};

/// Evaluation callback: run the pair under `policies`, optionally overriding
/// both workloads' utilization (dynaSprint calibrates at low rate), and
/// return each workload's p95 response time normalized by its expected
/// service time (lower is better).
pub type PolicyEval<'a> = dyn FnMut(&[ShortTermPolicy], Option<f64>) -> Vec<f64> + 'a;

/// The competing allocation strategies of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyStrategy {
    /// Each workload keeps only its private ways (the baseline all Figure-8
    /// results are normalized to).
    NoSharing,
    /// Fully share the whole region or fully isolate — whichever measures
    /// better (both workloads get the same choice).
    StaticBest,
    /// Workload-aware (dCat): the shared region is granted statically to
    /// the workload that gains the larger speedup from it.
    DCat,
    /// IPC/timeout-driven (dynaSprint): per-workload timeouts tuned for
    /// best performance at *low* arrival rate, reused regardless of the
    /// actual rate (ignores queueing delay).
    DynaSprint,
    /// Iterative dCat: instead of granting the whole shared region to one
    /// winner, reallocate it way-by-way toward whichever workload's
    /// measured performance improves more — a static-measurement rendition
    /// of dCat's runtime reallocation loop.
    DCatIterative,
}

/// Timeout grid used by dynaSprint's calibration (5 settings per workload,
/// mirroring the paper's 5-per-workload exploration).
pub const DYNASPRINT_TIMEOUTS: [f64; 5] = [0.25, 0.75, 1.5, 3.0, 6.0];

/// Utilization dynaSprint calibrates at.
pub const DYNASPRINT_CALIBRATION_UTIL: f64 = 0.3;

/// Build the policy vector for a strategy.
pub fn policies_for(
    strategy: PolicyStrategy,
    layout: &PairLayout,
    eval: &mut PolicyEval<'_>,
) -> Vec<ShortTermPolicy> {
    match strategy {
        PolicyStrategy::NoSharing => no_sharing(layout),
        PolicyStrategy::StaticBest => {
            let isolated = no_sharing(layout);
            let shared = fully_shared(layout);
            let score_iso = mean(&eval(&isolated, None));
            let score_shared = mean(&eval(&shared, None));
            if score_shared < score_iso {
                shared
            } else {
                isolated
            }
        }
        PolicyStrategy::DCat => {
            // grant the shared region statically to A, then to B; compare
            // each grantee's own speedup vs the isolated baseline
            let isolated = no_sharing(layout);
            let base = eval(&isolated, None);
            let grant_a = vec![
                ShortTermPolicy::static_only(layout.boosted_a()),
                ShortTermPolicy::static_only(layout.default_b()),
            ];
            let grant_b = vec![
                ShortTermPolicy::static_only(layout.default_a()),
                ShortTermPolicy::static_only(layout.boosted_b()),
            ];
            let with_a = eval(&grant_a, None);
            let with_b = eval(&grant_b, None);
            let speedup_a = base[0] / with_a[0].max(1e-12);
            let speedup_b = base[1] / with_b[1].max(1e-12);
            if speedup_a >= speedup_b {
                grant_a
            } else {
                grant_b
            }
        }
        PolicyStrategy::DCatIterative => {
            // hill-climb the split point, one way at a time, following the
            // mean of both workloads' normalized scores
            let mut k = layout.shared / 2;
            let score_at = |k: usize, eval: &mut PolicyEval<'_>| -> f64 {
                let (a, b) = split_shared(layout, k);
                mean(&eval(&static_pair(a, b), None))
            };
            let mut best_score = score_at(k, eval);
            loop {
                let mut improved = false;
                for cand in [k.saturating_sub(1), (k + 1).min(layout.shared)] {
                    if cand == k {
                        continue;
                    }
                    let s = score_at(cand, eval);
                    if s < best_score {
                        best_score = s;
                        k = cand;
                        improved = true;
                        break;
                    }
                }
                if !improved {
                    break;
                }
            }
            let (a, b) = split_shared(layout, k);
            static_pair(a, b)
        }
        PolicyStrategy::DynaSprint => {
            // independent per-workload timeout sweeps at low utilization
            let mut best = no_sharing(layout);
            let (pa, pb) = layout.policies(6.0, 6.0);
            // sweep A's timeout with B disabled, then B's with A disabled
            let mut best_ta = 6.0;
            let mut best_score_a = f64::INFINITY;
            for &t in &DYNASPRINT_TIMEOUTS {
                let cand = vec![ShortTermPolicy::new(pa.default, layout.boosted_a(), t), pb];
                let score = eval(&cand, Some(DYNASPRINT_CALIBRATION_UTIL))[0];
                if score < best_score_a {
                    best_score_a = score;
                    best_ta = t;
                }
            }
            let mut best_tb = 6.0;
            let mut best_score_b = f64::INFINITY;
            for &t in &DYNASPRINT_TIMEOUTS {
                let cand = vec![pa, ShortTermPolicy::new(pb.default, layout.boosted_b(), t)];
                let score = eval(&cand, Some(DYNASPRINT_CALIBRATION_UTIL))[1];
                if score < best_score_b {
                    best_score_b = score;
                    best_tb = t;
                }
            }
            best[0] = ShortTermPolicy::new(layout.default_a(), layout.boosted_a(), best_ta);
            best[1] = ShortTermPolicy::new(layout.default_b(), layout.boosted_b(), best_tb);
            best
        }
    }
}

/// Split the shared region statically: `to_a` of its ways join A's
/// partition (adjacent to A's private span, keeping contiguity), the rest
/// join B's. Both resulting settings are contiguous and disjoint.
fn split_shared(layout: &PairLayout, to_a: usize) -> (AllocationSetting, AllocationSetting) {
    assert!(
        to_a <= layout.shared,
        "cannot grant more than the shared region"
    );
    let a = AllocationSetting::new(layout.base_way, layout.private_a + to_a);
    let b_start = layout.base_way + layout.private_a + to_a;
    let b = AllocationSetting::new(b_start, (layout.shared - to_a) + layout.private_b);
    (a, b)
}

fn static_pair(a: AllocationSetting, b: AllocationSetting) -> Vec<ShortTermPolicy> {
    vec![
        ShortTermPolicy::static_only(a),
        ShortTermPolicy::static_only(b),
    ]
}

/// Private-ways-only policies.
pub fn no_sharing(layout: &PairLayout) -> Vec<ShortTermPolicy> {
    vec![
        ShortTermPolicy::static_only(layout.default_a()),
        ShortTermPolicy::static_only(layout.default_b()),
    ]
}

/// Both workloads statically share the whole region.
pub fn fully_shared(layout: &PairLayout) -> Vec<ShortTermPolicy> {
    vec![
        ShortTermPolicy::static_only(layout.fully_shared()),
        ShortTermPolicy::static_only(layout.fully_shared()),
    ]
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> PairLayout {
        PairLayout::symmetric(2, 2)
    }

    #[test]
    fn no_sharing_uses_private_only() {
        let ps = no_sharing(&layout());
        assert!(!ps[0].boost_enabled());
        assert_eq!(ps[0].default, layout().default_a());
        assert_eq!(ps[1].default, layout().default_b());
    }

    #[test]
    fn static_best_picks_the_better_option() {
        // surface where sharing is great for both
        let mut eval = |ps: &[ShortTermPolicy], _u: Option<f64>| -> Vec<f64> {
            if ps[0].default.length == layout().total_ways() {
                vec![1.0, 1.0]
            } else {
                vec![3.0, 3.0]
            }
        };
        let ps = policies_for(PolicyStrategy::StaticBest, &layout(), &mut eval);
        assert_eq!(ps[0].default.length, 6, "sharing wins on this surface");

        // surface where isolation is better
        let mut eval2 = |ps: &[ShortTermPolicy], _u: Option<f64>| -> Vec<f64> {
            if ps[0].default.length == layout().total_ways() {
                vec![5.0, 5.0]
            } else {
                vec![2.0, 2.0]
            }
        };
        let ps2 = policies_for(PolicyStrategy::StaticBest, &layout(), &mut eval2);
        assert_eq!(ps2[0].default.length, 2);
    }

    #[test]
    fn dcat_grants_shared_region_to_bigger_winner() {
        // B benefits hugely from the extra ways, A barely
        let mut eval = |ps: &[ShortTermPolicy], _u: Option<f64>| -> Vec<f64> {
            let a_granted = ps[0].default.length > 2;
            let b_granted = ps[1].default.length > 2;
            vec![
                if a_granted { 1.9 } else { 2.0 },
                if b_granted { 0.5 } else { 2.0 },
            ]
        };
        let ps = policies_for(PolicyStrategy::DCat, &layout(), &mut eval);
        assert_eq!(ps[1].default.length, 4, "B gets the shared region");
        assert_eq!(ps[0].default.length, 2, "A keeps private only");
        assert!(
            !ps[0].boost_enabled() && !ps[1].boost_enabled(),
            "dCat is static"
        );
    }

    #[test]
    fn split_shared_is_contiguous_and_disjoint() {
        let l = layout(); // private 2, shared 2, private 2
        for k in 0..=2 {
            let (a, b) = split_shared(&l, k);
            assert_eq!(a.length + b.length, l.total_ways());
            assert_eq!(a.overlap(&b), 0);
            assert!(a.to_cbm(20).is_ok());
            assert!(b.to_cbm(20).is_ok());
        }
        let (a, b) = split_shared(&l, 2);
        assert_eq!(a.length, 4, "A absorbed the whole shared region");
        assert_eq!(b.length, 2);
    }

    #[test]
    #[should_panic(expected = "more than the shared region")]
    fn split_shared_rejects_overgrant() {
        split_shared(&layout(), 3);
    }

    #[test]
    fn dcat_iterative_converges_to_surface_minimum() {
        // surface where giving both shared ways to A is optimal
        let mut eval = |ps: &[ShortTermPolicy], _u: Option<f64>| -> Vec<f64> {
            let a_len = ps[0].default.length as f64;
            // mean score minimized at a_len = 4 (k = 2)
            vec![(4.0 - a_len).abs() + 1.0, 1.0]
        };
        let ps = policies_for(PolicyStrategy::DCatIterative, &layout(), &mut eval);
        assert_eq!(ps[0].default.length, 4);
        assert_eq!(ps[1].default.length, 2);
        assert!(!ps[0].boost_enabled(), "dCat-iterative is static");
    }

    #[test]
    fn dynasprint_calibrates_at_low_rate() {
        let mut utils_seen = Vec::new();
        let mut eval = |ps: &[ShortTermPolicy], u: Option<f64>| -> Vec<f64> {
            utils_seen.push(u);
            // pretend T=0.75 is best for A, T=3.0 for B at low rate
            let score = |t: f64, best: f64| (t - best).abs() + 1.0;
            vec![
                score(ps[0].timeout_ratio, 0.75),
                score(ps[1].timeout_ratio, 3.0),
            ]
        };
        let ps = policies_for(PolicyStrategy::DynaSprint, &layout(), &mut eval);
        assert_eq!(ps[0].timeout_ratio, 0.75);
        assert_eq!(ps[1].timeout_ratio, 3.0);
        assert!(
            utils_seen
                .iter()
                .all(|u| *u == Some(DYNASPRINT_CALIBRATION_UTIL)),
            "dynaSprint only ever measures at its calibration rate"
        );
        assert!(ps[0].boost_enabled());
    }
}
