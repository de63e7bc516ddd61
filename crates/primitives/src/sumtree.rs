//! `B`-ary sum tree over `u64` weights with O(log_B n) point update and
//! weighted sampling.
//!
//! The ProWGen generator keeps every pool object's *remaining reference
//! count* in one of these: drawing the next referenced object
//! "proportional to remaining references" is a descent from the root, and
//! moving an object in or out of the LRU stack is a point update.
//!
//! Each descent step reads one row of `B` sibling sums — four adjacent
//! `u64`s — and picks the child by counting, without a branch, how many
//! running sums stay at or below the target. At 10,000 slots that is 7
//! dependent steps where a binary indexed tree's descent takes 14. A row is a
//! serial chain of `B` adds, so wider rows trade levels for longer chains:
//! EXPERIMENTS.md, "Throughput round 6", measures `B` = 4, 8 and 16, and 4
//! generates fastest.

/// Children per node.
const B: usize = 4;

/// Sum tree of non-negative integer weights.
#[derive(Clone, Debug)]
pub struct SumTree {
    /// Every level's node sums, root row first and leaves last; each level
    /// is zero-padded to whole rows of `B`, and node `j` of a level sums
    /// row `j` of the level below.
    nodes: Vec<u64>,
    /// Offset of each level in `nodes`, root row first.
    starts: Vec<usize>,
    /// Slots; the leaf level is padded past them.
    len: usize,
    total: u64,
}

impl SumTree {
    /// Builds from initial weights in O(n).
    pub fn from_weights(weights: &[u64]) -> Self {
        // Level widths from the leaves up, each a whole number of rows,
        // until one row (the root's children) holds a whole level.
        let mut widths = vec![weights.len().next_multiple_of(B).max(B)];
        while let Some(&w) = widths.last().filter(|&&w| w > B) {
            widths.push((w / B).next_multiple_of(B));
        }
        widths.reverse();
        let starts: Vec<usize> = widths
            .iter()
            .scan(0, |at, &w| {
                let start = *at;
                *at += w;
                Some(start)
            })
            .collect();
        let mut nodes = vec![0u64; widths.iter().sum()];
        let leaves = starts[starts.len() - 1];
        nodes[leaves..leaves + weights.len()].copy_from_slice(weights);
        for level in (1..starts.len()).rev() {
            let (upper, lower) = nodes.split_at_mut(starts[level]);
            let parents = &mut upper[starts[level - 1]..];
            for (parent, row) in parents.iter_mut().zip(lower[..widths[level]].chunks_exact(B)) {
                *parent = row.iter().sum();
            }
        }
        SumTree { nodes, starts, len: weights.len(), total: weights.iter().sum() }
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Weight of slot `i`.
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "slot {i} out of range (len {})", self.len);
        self.nodes[self.starts[self.starts.len() - 1] + i]
    }

    /// Adds `delta` to slot `i`'s weight.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the weight would go negative.
    pub fn add(&mut self, i: usize, delta: i64) {
        assert!(i < self.len, "slot {i} out of range (len {})", self.len);
        let (leaves, inner) = self.starts.split_last().expect("at least one level");
        let leaf = &mut self.nodes[leaves + i];
        *leaf = leaf.checked_add_signed(delta).expect("slot weight stays non-negative");
        let mut idx = i;
        for &start in inner.iter().rev() {
            idx /= B;
            self.nodes[start + idx] = self.nodes[start + idx].wrapping_add_signed(delta);
        }
        self.total = self.total.wrapping_add_signed(delta);
    }

    /// Finds the smallest `i` with `prefix(i) > target`, where `prefix(i)`
    /// sums the weights of slots `0..=i`; i.e. samples slot `i` when
    /// `target` is uniform in `[0, total)`.
    ///
    /// # Panics
    /// Panics if `target >= total()`.
    pub fn find(&self, mut target: u64) -> usize {
        assert!(target < self.total, "target {target} out of range (total {})", self.total);
        let mut idx = 0;
        for &start in &self.starts {
            let row: &[u64; B] =
                self.nodes[start + idx * B..][..B].try_into().expect("levels are whole rows");
            // `target` is below this row's sum, so the child is the count
            // of running sums at or below it, and `below` is what the
            // children before it hold.
            let (mut child, mut below, mut running) = (0, 0, 0);
            for &w in row {
                running += w;
                let le = running <= target;
                child += usize::from(le);
                below += if le { w } else { 0 };
            }
            target -= below;
            idx = idx * B + child;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_selects_by_weight() {
        let f = SumTree::from_weights(&[2, 0, 3, 1]);
        // cumulative: [2,2,5,6]
        assert_eq!(f.total(), 6);
        assert_eq!(f.find(0), 0);
        assert_eq!(f.find(1), 0);
        assert_eq!(f.find(2), 2);
        assert_eq!(f.find(4), 2);
        assert_eq!(f.find(5), 3);
    }

    #[test]
    fn find_skips_zero_weights() {
        let f = SumTree::from_weights(&[0, 0, 1, 0, 2]);
        assert_eq!(f.find(0), 2);
        assert_eq!(f.find(1), 4);
        assert_eq!(f.find(2), 4);
    }

    #[test]
    fn add_and_remove() {
        let mut f = SumTree::from_weights(&[0; 5]);
        f.add(3, 10);
        assert_eq!(f.total(), 10);
        assert_eq!(f.find(9), 3);
        f.add(3, -10);
        assert_eq!(f.total(), 0);
        f.add(0, 1);
        assert_eq!(f.find(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn find_rejects_target_at_total() {
        let f = SumTree::from_weights(&[1, 2]);
        let _ = f.find(3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn add_rejects_a_negative_weight() {
        let mut f = SumTree::from_weights(&[1, 2]);
        f.add(0, -2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_empty_tree_has_nothing_to_find() {
        let f = SumTree::from_weights(&[]);
        assert_eq!(f.total(), 0);
        let _ = f.find(0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Random adds against a plain `Vec<u64>`. Half the cases take a
        /// random length in `1..=600`, the rest one of a single slot, the
        /// exact powers of `B` and their neighbours; each add moves a slot
        /// up, moves it down, or empties it and puts the weight back.
        #[test]
        fn matches_a_naive_model(
            pick in 0usize..1_200,
            weights in proptest::collection::vec(0u64..50, 600..601),
            ops in proptest::collection::vec((0usize..600, 0u64..60, 0u8..3), 1..64),
        ) {
            let len = match pick {
                0..600 => pick + 1,
                _ => [1, B, B * B, B * B * B, B + 1, B * B - 1][pick % 6].min(600),
            };
            let mut model = weights[..len].to_vec();
            let mut tree = SumTree::from_weights(&model);
            check(&tree, &model)?;
            for (i, amount, kind) in ops {
                let i = i % len;
                let delta = match kind {
                    0 => amount as i64,
                    1 => -(amount.min(model[i]) as i64),
                    _ => {
                        let w = model[i] as i64;
                        tree.add(i, -w);
                        model[i] = 0;
                        check(&tree, &model)?;
                        w
                    }
                };
                tree.add(i, delta);
                model[i] = model[i].checked_add_signed(delta).expect("model stays non-negative");
                check(&tree, &model)?;
            }
        }
    }

    /// `tree` holds `model`: same weights and total, and `find` returns
    /// the first slot whose prefix sum exceeds the target, over a strided
    /// sweep of `[0, total)` plus `total - 1`.
    fn check(tree: &SumTree, model: &[u64]) -> Result<(), proptest::TestCaseError> {
        let prefix: Vec<u64> = model
            .iter()
            .scan(0, |sum, &w| {
                *sum += w;
                Some(*sum)
            })
            .collect();
        let total = prefix[prefix.len() - 1];
        proptest::prop_assert_eq!(tree.total(), total);
        for (i, &w) in model.iter().enumerate() {
            proptest::prop_assert_eq!(tree.get(i), w, "slot {}", i);
        }
        if total == 0 {
            return Ok(());
        }
        let stride = (total / 97).max(1) as usize;
        for target in (0..total).step_by(stride).chain([total - 1]) {
            let naive = prefix.partition_point(|&p| p <= target);
            proptest::prop_assert_eq!(tree.find(target), naive, "target {}", target);
        }
        Ok(())
    }
}
