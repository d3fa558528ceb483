//! Table 2 — the runtime-condition space.
//!
//! Prints the supported setting ranges and demonstrates coverage by drawing
//! a sample of random conditions and summarizing their spread (the profiling
//! stage samples this space, uniformly or stratified).

use crate::table::{f2, Table};
use crate::Scale;
use stca_util::{Percentiles, Rng64};
use stca_workloads::conditions::bounds;
use stca_workloads::{BenchmarkId, RuntimeCondition};

pub fn run(_scale: Scale) {
    println!("Table 2: static runtime conditions for each online service\n");
    let mut t = Table::new(&["description", "supported settings"]);
    t.row(&[
        "collocated services sharing cache lines".into(),
        BenchmarkId::ALL
            .iter()
            .map(|b| b.short_name())
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    t.row(&[
        "query inter-arrival rate (rel. to service time)".into(),
        format!(
            "{:.0}% - {:.0}%",
            bounds::MIN_UTIL * 100.0,
            bounds::MAX_UTIL * 100.0
        ),
    ]);
    t.row(&[
        "timeout policy (rel. to service time)".into(),
        format!(
            "{:.0}% (always shared) - {:.0}% (never short-term)",
            bounds::MIN_TIMEOUT * 100.0,
            bounds::MAX_TIMEOUT * 100.0
        ),
    ]);
    t.row(&[
        "cache usage sampling".into(),
        format!("1 Hz - every {:.0} seconds", bounds::MAX_SAMPLE_PERIOD),
    ]);
    t.print();

    // coverage check: draw random conditions, report quantiles
    let mut rng = Rng64::new(2022);
    let mut utils = Percentiles::new();
    let mut timeouts = Percentiles::new();
    let n = 2000;
    for _ in 0..n {
        let c = RuntimeCondition::random_pair(BenchmarkId::Redis, BenchmarkId::Social, &mut rng);
        assert!(c.in_bounds());
        for w in &c.workloads {
            utils.push(w.utilization);
            timeouts.push(w.timeout_ratio);
        }
    }
    println!("\nSampling coverage over {n} random conditions:");
    let mut c = Table::new(&["dimension", "p5", "p50", "p95"]);
    c.row(&[
        "utilization".into(),
        f2(utils.quantile(0.05)),
        f2(utils.quantile(0.50)),
        f2(utils.quantile(0.95)),
    ]);
    c.row(&[
        "timeout ratio".into(),
        f2(timeouts.quantile(0.05)),
        f2(timeouts.quantile(0.50)),
        f2(timeouts.quantile(0.95)),
    ]);
    c.print();
    println!(
        "\nPairwise collocations covered by the profiling harness: {}",
        RuntimeCondition::all_pairs().len()
    );
}
