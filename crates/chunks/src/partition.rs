//! Chunk → data-node placement.
//!
//! The repository divides a dataset's chunks across its `n` on-line data
//! nodes by contiguous placement (ADR-style, preserving spatial
//! locality).

/// Contiguous placement: node `i` holds chunks
/// `[i*m/n, (i+1)*m/n)` — balanced to within one chunk.
pub fn contiguous(num_chunks: usize, data_nodes: usize) -> Vec<Vec<usize>> {
    assert!(data_nodes >= 1);
    (0..data_nodes)
        .map(|i| {
            let lo = i * num_chunks / data_nodes;
            let hi = (i + 1) * num_chunks / data_nodes;
            (lo..hi).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contiguous_is_contiguous_and_balanced() {
        let p = contiguous(10, 4);
        assert_eq!(p, vec![vec![0, 1], vec![2, 3, 4], vec![5, 6], vec![7, 8, 9]]);
    }

    #[test]
    fn single_node_gets_everything() {
        assert_eq!(contiguous(3, 1), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn more_nodes_than_chunks_leaves_some_empty() {
        let p = contiguous(2, 4);
        let total: usize = p.iter().map(|v| v.len()).sum();
        assert_eq!(total, 2);
    }

    proptest! {
        /// The placement is a partition: every chunk appears exactly
        /// once, and load is balanced to within one chunk.
        #[test]
        fn placement_is_a_balanced_partition(m in 0usize..500, n in 1usize..17) {
            let p = contiguous(m, n);
            prop_assert_eq!(p.len(), n);
            let mut seen = vec![false; m];
            for node in &p {
                for &k in node {
                    prop_assert!(!seen[k], "chunk {} placed twice", k);
                    seen[k] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
            let lens: Vec<usize> = p.iter().map(|v| v.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            prop_assert!(max - min <= 1, "imbalance: {:?}", lens);
        }
    }
}
