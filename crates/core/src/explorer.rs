//! Model-driven policy exploration (§5.2 "Managing Short-Term Allocation").
//!
//! For a collocated pair the explorer evaluates a 5 x 5 grid of timeout
//! vectors (5 independent settings per workload = 25 combinations, as in the
//! paper) *entirely under the model* — no test-environment runs. For a
//! candidate timeout vector the model needs profile features; since the
//! candidate was never profiled, the explorer substitutes the features of
//! the profiled condition nearest in (utilization, timeout) space and
//! overwrites its static features with the candidate's — the standard way a
//! profile-driven model extrapolates to unprofiled policies.
//!
//! Policy selection implements the paper's SLO-driven matching: **step 1**,
//! per workload, keep timeout settings whose predicted response time is
//! within 5% of that workload's best; **step 2**, choose a grid point in
//! the intersection. When the intersection is empty the explorer falls back
//! to minimizing the maximum normalized response time — the balanced
//! compromise the matching rule is after.

use crate::predictor::Predictor;
use stca_cat::{PairLayout, ShortTermPolicy};
use stca_fault::checkpoint::{f64s_to_value, value_to_f64s, Checkpoint};
use stca_fault::StcaError;
use stca_profiler::profile::{ProfileRow, ProfileSet};
use stca_workloads::BenchmarkId;
use std::path::Path;

/// Default timeout grid (5 settings per workload): the serving plane's
/// grid, so offline exploration and live decisions score the same timeouts.
pub use stca_serve::TIMEOUT_GRID;

/// SLO-matching tolerance (settings within 5% of the per-workload best).
pub const SLO_TOLERANCE: f64 = 0.05;

/// Result of exploring one pair.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// Chosen timeout for workload A.
    pub timeout_a: f64,
    /// Chosen timeout for workload B.
    pub timeout_b: f64,
    /// Predicted p95 response (normalized by expected service) for A at the
    /// chosen point.
    pub predicted_a: f64,
    /// Predicted normalized p95 response for B at the chosen point.
    pub predicted_b: f64,
    /// The full predicted grid: `grid[i][j]` = (A's, B's) normalized p95
    /// at `(TIMEOUT_GRID[i], TIMEOUT_GRID[j])`.
    pub grid: Vec<Vec<(f64, f64)>>,
    /// Whether the SLO intersection was non-empty (step 2 succeeded
    /// without falling back to minimax).
    pub intersected: bool,
}

impl ExplorationResult {
    /// The chosen policies for the pair on a layout.
    pub fn policies(&self, layout: &PairLayout) -> Vec<ShortTermPolicy> {
        let (pa, pb) = layout.policies(self.timeout_a, self.timeout_b);
        vec![pa, pb]
    }
}

/// Model-driven policy explorer for one collocated pair.
pub struct PolicyExplorer<'a> {
    predictor: &'a Predictor,
    /// Profiles of this pair (feature source for unprofiled candidates).
    profiles: &'a ProfileSet,
    benchmark_a: BenchmarkId,
    benchmark_b: BenchmarkId,
    /// Utilization the policy must serve (Figure 8 uses 90%).
    utilization: f64,
}

impl<'a> PolicyExplorer<'a> {
    /// Create an explorer.
    pub fn new(
        predictor: &'a Predictor,
        profiles: &'a ProfileSet,
        benchmark_a: BenchmarkId,
        benchmark_b: BenchmarkId,
        utilization: f64,
    ) -> Self {
        assert!(!profiles.is_empty(), "explorer needs profile features");
        PolicyExplorer {
            predictor,
            profiles,
            benchmark_a,
            benchmark_b,
            utilization,
        }
    }

    /// Nearest profiled row in (own util, own timeout, other util, other
    /// timeout) space, with static features overwritten by the candidate's.
    fn synthesize_row(&self, own_timeout: f64, other_timeout: f64) -> ProfileRow {
        let target = [
            self.utilization,
            own_timeout,
            self.utilization,
            other_timeout,
        ];
        let nearest = self
            .profiles
            .rows
            .iter()
            .min_by(|a, b| {
                let d = |r: &ProfileRow| -> f64 {
                    r.static_features
                        .iter()
                        .zip(&target)
                        .map(|(x, t)| {
                            // timeouts span 0..6, utils 0.25..0.95: scale to
                            // comparable ranges
                            let scale = if (x - t).abs() > 1.0 { 6.0 } else { 1.0 };
                            ((x - t) / scale).powi(2)
                        })
                        .sum()
                };
                d(a).partial_cmp(&d(b)).expect("finite distances")
            })
            .expect("nonempty profiles");
        let mut row = nearest.clone();
        row.static_features[0] = self.utilization;
        row.static_features[1] = own_timeout;
        if row.static_features.len() >= 4 {
            row.static_features[2] = self.utilization;
            row.static_features[3] = other_timeout;
        }
        row
    }

    /// Predict A's and B's normalized p95 at one timeout vector.
    pub fn predict_point(&self, timeout_a: f64, timeout_b: f64) -> (f64, f64) {
        let row_a = self.synthesize_row(timeout_a, timeout_b);
        let row_b = self.synthesize_row(timeout_b, timeout_a);
        let pred_a = self.predictor.predict_response(&row_a, self.benchmark_a);
        let pred_b = self.predictor.predict_response(&row_b, self.benchmark_b);
        let es_a = stca_workloads::WorkloadSpec::for_benchmark(self.benchmark_a).mean_service_time;
        let es_b = stca_workloads::WorkloadSpec::for_benchmark(self.benchmark_b).mean_service_time;
        (pred_a.p95_response / es_a, pred_b.p95_response / es_b)
    }

    /// Explore the default 5x5 grid and select per the SLO matching rule.
    pub fn explore(&self) -> ExplorationResult {
        self.explore_with_grid(&TIMEOUT_GRID)
    }

    /// Explore an arbitrary timeout grid (the grid-granularity ablation
    /// compares 5-point and finer grids). Grid cells are evaluated in
    /// parallel; prediction is pure given the candidate point, so the
    /// result is identical at any thread count.
    pub fn explore_with_grid(&self, grid_points: &[f64]) -> ExplorationResult {
        assert!(!grid_points.is_empty());
        stca_obs::time_scope!("core.explorer.explore_seconds");
        let n = grid_points.len();
        let cells = stca_exec::par_map_range(n * n, |k| {
            self.predict_point(grid_points[k / n], grid_points[k % n])
        });
        stca_obs::counter("core.explorer.candidates_evaluated_total").add((n * n) as u64);
        self.select_from_cells(grid_points, cells)
    }

    /// [`explore_with_grid`] with crash recovery: each grid cell's
    /// prediction is persisted to a [`Checkpoint`] at `path` as soon as its
    /// batch (one grid row) completes. A re-run after a kill reloads the
    /// finished cells and computes only the remainder, yielding a result
    /// bit-identical to an uninterrupted run. `meta` is the caller's key of
    /// every input — the explore stage key of the spec rows the search
    /// reads and the profile store's hash — so a checkpoint from other
    /// inputs is discarded rather than mixed in.
    ///
    /// [`explore_with_grid`]: PolicyExplorer::explore_with_grid
    pub fn explore_with_grid_checkpointed(
        &self,
        grid_points: &[f64],
        path: &Path,
        meta: &str,
    ) -> Result<ExplorationResult, StcaError> {
        if grid_points.is_empty() {
            return Err(StcaError::invalid_input("empty timeout grid"));
        }
        stca_obs::time_scope!("core.explorer.explore_seconds");
        let n = grid_points.len();
        let mut ckpt = Checkpoint::load_or_new(path, meta)?;
        let mut cells: Vec<Option<(f64, f64)>> = (0..n * n)
            .map(|k| {
                let pair = value_to_f64s(ckpt.get(&format!("cell.{k}"))?)?;
                (pair.len() == 2).then(|| (pair[0], pair[1]))
            })
            .collect();
        let resumed = cells.iter().filter(|c| c.is_some()).count();
        if resumed > 0 {
            stca_obs::info!(
                "explorer resuming: {resumed}/{} grid cells from {}",
                n * n,
                path.display()
            );
        }
        // compute the missing cells one grid row at a time, checkpointing
        // after each row so a kill loses at most one row of predictions
        for i in 0..n {
            let missing: Vec<usize> = (i * n..(i + 1) * n)
                .filter(|&k| cells[k].is_none())
                .collect();
            if missing.is_empty() {
                continue;
            }
            let computed = stca_exec::par_map_indexed(&missing, |_, &k| {
                self.predict_point(grid_points[k / n], grid_points[k % n])
            });
            stca_obs::counter("core.explorer.candidates_evaluated_total").add(missing.len() as u64);
            for (&k, cell) in missing.iter().zip(computed) {
                ckpt.put(format!("cell.{k}"), f64s_to_value(&[cell.0, cell.1]));
                cells[k] = Some(cell);
            }
            ckpt.save()?;
        }
        let cells: Vec<(f64, f64)> = cells
            .into_iter()
            .map(|c| c.expect("every cell computed or resumed"))
            .collect();
        Ok(self.select_from_cells(grid_points, cells))
    }

    /// SLO matching (step 1 + step 2) over a fully evaluated grid.
    fn select_from_cells(&self, grid_points: &[f64], cells: Vec<(f64, f64)>) -> ExplorationResult {
        let n = grid_points.len();
        let grid: Vec<Vec<(f64, f64)>> = cells.chunks(n).map(|row| row.to_vec()).collect();
        // step 1: per-workload near-best sets
        let best_a = grid
            .iter()
            .flatten()
            .map(|&(a, _)| a)
            .fold(f64::INFINITY, f64::min);
        let best_b = grid
            .iter()
            .flatten()
            .map(|&(_, b)| b)
            .fold(f64::INFINITY, f64::min);
        let mut intersection: Vec<(usize, usize)> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in 0..n {
                let (a, b) = grid[i][j];
                if a <= best_a * (1.0 + SLO_TOLERANCE) && b <= best_b * (1.0 + SLO_TOLERANCE) {
                    intersection.push((i, j));
                }
            }
        }
        let intersected = !intersection.is_empty();
        // candidates outside the SLO intersection are pruned from step 2
        stca_obs::counter("core.explorer.candidates_pruned_total")
            .add((n * n - intersection.len()) as u64);
        if intersected {
            stca_obs::counter("core.explorer.slo_intersections_total").inc();
        } else {
            stca_obs::counter("core.explorer.minimax_fallbacks_total").inc();
        }
        stca_obs::debug!(
            "explorer {}({}) at util {:.2}: {} candidates, {} in SLO intersection",
            self.benchmark_a,
            self.benchmark_b,
            self.utilization,
            n * n,
            intersection.len()
        );
        let (bi, bj) = if intersected {
            // within the intersection, prefer the point with the lowest sum
            intersection
                .into_iter()
                .min_by(|&(i1, j1), &(i2, j2)| {
                    let s1 = grid[i1][j1].0 + grid[i1][j1].1;
                    let s2 = grid[i2][j2].0 + grid[i2][j2].1;
                    s1.partial_cmp(&s2).expect("finite")
                })
                .expect("nonempty intersection")
        } else {
            // step-2 fallback: minimax over normalized responses
            let mut best = (0, 0);
            let mut best_score = f64::INFINITY;
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = grid[i][j];
                    let score = (a / best_a).max(b / best_b);
                    if score < best_score {
                        best_score = score;
                        best = (i, j);
                    }
                }
            }
            best
        };
        ExplorationResult {
            timeout_a: grid_points[bi],
            timeout_b: grid_points[bj],
            predicted_a: grid[bi][bj].0,
            predicted_b: grid[bi][bj].1,
            grid,
            intersected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ModelConfig;
    use stca_profiler::executor::{ExperimentSpec, TestEnvironment};
    use stca_profiler::profile::ProfileRow;
    use stca_profiler::sampler::CounterOrdering;
    use stca_util::Rng64;
    use stca_workloads::RuntimeCondition;

    fn build_explorer_fixture() -> (ProfileSet, Predictor) {
        let mut rng = Rng64::new(77);
        let mut set = ProfileSet::new();
        for i in 0..6 {
            let cond =
                RuntimeCondition::random_pair(BenchmarkId::Redis, BenchmarkId::Social, &mut rng);
            let out = TestEnvironment::new(ExperimentSpec::quick(cond.clone(), 500 + i)).run();
            for (j, w) in out.workloads.iter().enumerate() {
                set.push(ProfileRow::from_outcome(
                    &cond,
                    j,
                    w,
                    CounterOrdering::Grouped,
                ));
            }
        }
        let predictor = Predictor::train(&set, &ModelConfig::quick(5));
        (set, predictor)
    }

    #[test]
    fn explore_returns_grid_and_choice() {
        let (profiles, predictor) = build_explorer_fixture();
        let explorer = PolicyExplorer::new(
            &predictor,
            &profiles,
            BenchmarkId::Redis,
            BenchmarkId::Social,
            0.9,
        );
        let result = explorer.explore();
        assert_eq!(result.grid.len(), 5);
        assert!(TIMEOUT_GRID.contains(&result.timeout_a));
        assert!(TIMEOUT_GRID.contains(&result.timeout_b));
        assert!(result.predicted_a > 0.0);
        assert!(result.predicted_b > 0.0);
        // the chosen point's predictions match its grid cell
        let i = TIMEOUT_GRID
            .iter()
            .position(|&t| t == result.timeout_a)
            .expect("on grid");
        let j = TIMEOUT_GRID
            .iter()
            .position(|&t| t == result.timeout_b)
            .expect("on grid");
        assert_eq!(result.grid[i][j], (result.predicted_a, result.predicted_b));
    }

    #[test]
    fn checkpointed_explore_is_bit_identical_and_resumable() {
        let (profiles, predictor) = build_explorer_fixture();
        let explorer = PolicyExplorer::new(
            &predictor,
            &profiles,
            BenchmarkId::Redis,
            BenchmarkId::Social,
            0.9,
        );
        let plain = explorer.explore_with_grid(&TIMEOUT_GRID);
        let path =
            std::env::temp_dir().join(format!("stca-explore-ckpt-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();

        let grids_match = |a: &ExplorationResult, b: &ExplorationResult| {
            assert_eq!(a.timeout_a, b.timeout_a);
            assert_eq!(a.timeout_b, b.timeout_b);
            for (ra, rb) in a.grid.iter().zip(&b.grid) {
                for (ca, cb) in ra.iter().zip(rb) {
                    assert_eq!(ca.0.to_bits(), cb.0.to_bits());
                    assert_eq!(ca.1.to_bits(), cb.1.to_bits());
                }
            }
        };

        // fresh checkpointed run matches the plain path bit-for-bit
        let full = explorer
            .explore_with_grid_checkpointed(&TIMEOUT_GRID, &path, "test")
            .expect("fresh run");
        grids_match(&plain, &full);

        // simulate a mid-run kill: drop half the persisted cells, resume
        let text = std::fs::read_to_string(&path).expect("checkpoint exists");
        let mut doc = stca_obs::json::Value::parse(&text).expect("valid json");
        if let stca_obs::json::Value::Object(ref mut top) = doc {
            if let Some(stca_obs::json::Value::Object(entries)) = top.get_mut("entries") {
                let keys: Vec<String> = entries.keys().skip(12).cloned().collect();
                for k in keys {
                    entries.remove(&k);
                }
                assert_eq!(entries.len(), 12, "partial checkpoint");
            }
        }
        std::fs::write(&path, doc.to_string()).expect("write partial");
        let resumed = explorer
            .explore_with_grid_checkpointed(&TIMEOUT_GRID, &path, "test")
            .expect("resumed run");
        grids_match(&plain, &resumed);

        // a third run resumes everything without recomputation
        let again = explorer
            .explore_with_grid_checkpointed(&TIMEOUT_GRID, &path, "test")
            .expect("fully resumed run");
        grids_match(&plain, &again);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn policies_use_chosen_timeouts() {
        let layout = PairLayout::symmetric(2, 2);
        let r = ExplorationResult {
            timeout_a: 0.75,
            timeout_b: 3.0,
            predicted_a: 1.0,
            predicted_b: 1.0,
            grid: vec![],
            intersected: true,
        };
        let ps = r.policies(&layout);
        assert_eq!(ps[0].timeout_ratio, 0.75);
        assert_eq!(ps[1].timeout_ratio, 3.0);
        assert_eq!(ps[0].default, layout.default_a());
        assert_eq!(ps[1].boosted, layout.boosted_b());
    }
}
