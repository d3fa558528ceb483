//! A stable in-place partition for the training hot paths.
//!
//! The deep-forest tree builder keeps one array of sample rows per tree
//! and, at every split, partitions a node's range of it *stably and in
//! place*, so each child's rows stay in the parent's order without a
//! fresh vector per node. The partition lives here so other crates can
//! share it.

/// Stable in-place partition of `items` by `pred`, using `scratch` as the
/// spill buffer (cleared on entry; capacity is reused across calls).
///
/// Elements satisfying `pred` move to the front, the rest to the back, both
/// groups in their original relative order — the same ordering contract as
/// `Iterator::partition` into two fresh `Vec`s, without the two
/// allocations. Returns the number of elements in the `true` group.
pub fn stable_partition_in_place<T: Copy>(
    items: &mut [T],
    scratch: &mut Vec<T>,
    mut pred: impl FnMut(T) -> bool,
) -> usize {
    scratch.clear();
    let mut write = 0;
    for read in 0..items.len() {
        let v = items[read];
        if pred(v) {
            items[write] = v;
            write += 1;
        } else {
            scratch.push(v);
        }
    }
    items[write..].copy_from_slice(scratch);
    write
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_partition_matches_vec_partition() {
        let src: Vec<u32> = vec![5, 2, 9, 4, 7, 0, 3, 8];
        let (evens, odds): (Vec<u32>, Vec<u32>) = src.iter().partition(|&&v| v % 2 == 0);
        let mut items = src.clone();
        let mut scratch = Vec::new();
        let nl = stable_partition_in_place(&mut items, &mut scratch, |v| v % 2 == 0);
        assert_eq!(nl, evens.len());
        assert_eq!(&items[..nl], &evens[..]);
        assert_eq!(&items[nl..], &odds[..]);
    }

    #[test]
    fn stable_partition_degenerate_groups() {
        let mut all = vec![1, 2, 3];
        let mut scratch = Vec::new();
        assert_eq!(
            stable_partition_in_place(&mut all, &mut scratch, |_| true),
            3
        );
        assert_eq!(all, vec![1, 2, 3]);
        assert_eq!(
            stable_partition_in_place(&mut all, &mut scratch, |_| false),
            0
        );
        assert_eq!(all, vec![1, 2, 3]);
    }
}
