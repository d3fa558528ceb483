//! The paper's evaluation, one function per table, figure or study.
//!
//! [`FIGURES`] lists them in paper order under their historical names;
//! the `figures` binary runs one (`--only NAME`) or all of them at a
//! [`Scale`]. Each prints its result table to stdout and logs to stderr.

mod ablation_maskmode;
mod diag_stage3;
mod fig5_variance;
mod fig6_accuracy;
mod fig7a_generalization;
mod fig7b_cache_sizes;
mod fig7c_mgs;
mod fig8_speedup;
mod insight_clustering;
mod profiling_time;
mod table1_workloads;
mod table2_conditions;

use crate::Scale;

/// A figure: its name and the function that prints it at a scale.
pub type Figure = (&'static str, fn(Scale));

/// Every figure: Tables 1–2, Figures 5–8, the §5.1 profiling-time and
/// §5.2 clustering studies, then the mask-mode ablation and the Stage-3
/// diagnostic.
pub const FIGURES: [Figure; 12] = [
    ("table1_workloads", table1_workloads::run),
    ("table2_conditions", table2_conditions::run),
    ("fig5_variance", fig5_variance::run),
    ("fig6_accuracy", fig6_accuracy::run),
    ("fig7a_generalization", fig7a_generalization::run),
    ("fig7b_cache_sizes", fig7b_cache_sizes::run),
    ("fig7c_mgs", fig7c_mgs::run),
    ("fig8_speedup", fig8_speedup::run),
    ("profiling_time", profiling_time::run),
    ("insight_clustering", insight_clustering::run),
    ("ablation_maskmode", ablation_maskmode::run),
    ("diag_stage3", diag_stage3::run),
];
