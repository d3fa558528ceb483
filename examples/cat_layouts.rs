//! Tour of the CAT substrate: the pair and chain way layouts, and the §2
//! conjectures (private regions disjoint, sharing degree at most 2) checked
//! on them.
//!
//! ```sh
//! cargo run --example cat_layouts
//! ```

use stca_repro::cat::layout::{
    private_regions_disjoint, private_ways, sharing_degree_bounded, ChainLayout,
};
use stca_repro::cat::{PairLayout, ShortTermPolicy};

fn main() {
    // --- the paper's pairwise layout and the two conjectures ---
    let layout = PairLayout::symmetric(2, 2);
    let (pa, pb) = layout.policies(1.5, 0.75);
    println!(
        "pair layout on 6 ways: A default {}, boosted {}",
        pa.default, pa.boosted
    );
    println!(
        "                       B default {}, boosted {}",
        pb.default, pb.boosted
    );
    println!("A's private ways: {:?}", private_ways(&pa, &[pb]));
    println!("B's private ways: {:?}", private_ways(&pb, &[pa]));
    println!(
        "conjecture 1 (private regions disjoint): {}",
        private_regions_disjoint(&[pa, pb])
    );
    println!(
        "conjecture 2 (sharing degree <= 2):      {}",
        sharing_degree_bounded(&[pa, pb])
    );

    // chains of 5 workloads still satisfy both — contiguity forces pairwise
    // interaction, which is why the paper's contention model is pairwise
    let chain = ChainLayout::new(5, 2, 1);
    let policies: Vec<ShortTermPolicy> = chain.policies(1.0);
    println!(
        "\nchain of 5 workloads ({} ways): disjoint={} bounded={}",
        chain.total_ways(),
        private_regions_disjoint(&policies),
        sharing_degree_bounded(&policies),
    );
    for (i, p) in policies.iter().enumerate() {
        println!(
            "  workload {i}: default {} boosted {}",
            p.default, p.boosted
        );
    }
}
