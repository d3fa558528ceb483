//! Stage watchdog: bounded patience for stuck pipeline stages.
//!
//! Every pipeline stage (predict, decide) runs under a virtual-time
//! budget. A stage that would exceed the budget — in this model, because
//! the fault plan injected a stall — is cut off at the budget and failed
//! into the retry path: the loop charges the wasted budget, re-rolls the
//! stage under attempt 1, and sheds the request as failed if the retry
//! stalls too. This mirrors a wall-clock watchdog killing a wedged worker,
//! but stays deterministic because "time spent" is computed, not measured.

/// One stage execution as the watchdog saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageRun {
    /// Stage finished inside the budget; charge `cost_s`.
    Ok {
        /// Virtual seconds the stage took.
        cost_s: f64,
    },
    /// Stage overran the budget; the watchdog killed it after `wasted_s`.
    Stuck {
        /// Virtual seconds burned before the watchdog fired (the budget).
        wasted_s: f64,
    },
}

/// Per-stage watchdog budget, virtual seconds.
pub const WATCHDOG_BUDGET_S: f64 = 0.25;

/// Supervise one stage whose base cost is `base_cost_s` with `stall_s` of
/// injected stall on top.
pub(crate) fn supervise(base_cost_s: f64, stall_s: f64) -> StageRun {
    let cost = base_cost_s + stall_s.max(0.0);
    if cost > WATCHDOG_BUDGET_S {
        StageRun::Stuck {
            wasted_s: WATCHDOG_BUDGET_S,
        }
    } else {
        StageRun::Ok { cost_s: cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_budget_passes_through() {
        assert_eq!(supervise(0.1, 0.0), StageRun::Ok { cost_s: 0.1 });
        assert_eq!(supervise(0.1, 0.125), StageRun::Ok { cost_s: 0.225 });
    }

    #[test]
    fn overrun_is_cut_at_the_budget() {
        let stuck = StageRun::Stuck {
            wasted_s: WATCHDOG_BUDGET_S,
        };
        assert_eq!(supervise(0.1, 2.0), stuck);
        // negative stall cannot rescue an oversized base cost
        assert_eq!(supervise(0.35, -1.0), stuck);
    }
}
