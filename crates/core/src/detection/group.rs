//! Group generation (Section V-A, Table II).
//!
//! The compressed vectors of a trajectory's candidates are *disordered*; the
//! grouping organises them so a sequence model can exploit three
//! relationships:
//!
//! - **inclusion** — within a subgroup, each candidate extends the previous
//!   one by a move point and a stay point (left-to-right);
//! - **exclusion** — each candidate is the next one minus its tail
//!   (right-to-left);
//! - **analogy** — all members of a forward subgroup share the starting stay
//!   point; of a backward subgroup, the ending stay point.

use crate::processing::{enumerate_candidates, Candidate};

/// The forward and backward groups of a trajectory with `n` stay points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups {
    /// Number of stay points.
    pub n: usize,
    /// Forward subgroups `g_{i'}`: candidates starting at `i'`, sorted by
    /// ascending ending index. `forward[i']` is `g_{i'}` for `i' ∈ [0, n−1)`.
    pub forward: Vec<Vec<Candidate>>,
    /// Backward subgroups `ḡ_{j'}`: candidates ending at `j'`, sorted by
    /// *descending* starting index. `backward[k]` is `ḡ_{k+1}` for
    /// `k ∈ [0, n−1)`.
    pub backward: Vec<Vec<Candidate>>,
}

/// Builds both groups for `n` stay points.
///
/// # Panics
/// Panics if `n < 2` (no candidates exist).
pub fn build_groups(n: usize) -> Groups {
    assert!(n >= 2, "need at least two stay points to form candidates");
    let forward: Vec<Vec<Candidate>> = (0..n - 1)
        .map(|i| ((i + 1)..n).map(|j| Candidate::new(i, j)).collect())
        .collect();
    let backward: Vec<Vec<Candidate>> = (1..n)
        .map(|j| (0..j).rev().map(|i| Candidate::new(i, j)).collect())
        .collect();
    Groups {
        n,
        forward,
        backward,
    }
}

/// The canonical forward flattening `[p̂_1^f … p̂_{n−1}^f]`: forward subgroups
/// concatenated in starting-index order — identical to
/// [`enumerate_candidates`].
pub fn forward_flat_order(n: usize) -> Vec<Candidate> {
    enumerate_candidates(n)
}

/// The canonical backward flattening `[p̂_2^b … p̂_n^b]`: backward subgroups
/// concatenated in ending-index order.
pub fn backward_flat_order(n: usize) -> Vec<Candidate> {
    // `n * (n - 1)` would underflow for `n = 0`; saturate so the degenerate
    // inputs yield an empty order instead of a panic in release builds.
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for j in 1..n {
        for i in (0..j).rev() {
            out.push(Candidate::new(i, j));
        }
    }
    out
}

impl Groups {
    /// Total number of candidates across subgroups (each group covers every
    /// candidate exactly once).
    pub fn num_candidates(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn table_ii_example() {
        // The paper's Table II with 5 stay points (1-based there, 0-based
        // here): forward g_1 = ⟨(1,2),(1,3),(1,4),(1,5)⟩, …
        let g = build_groups(5);
        assert_eq!(g.forward.len(), 4);
        assert_eq!(
            g.forward[0]
                .iter()
                .map(|c| (c.start_sp + 1, c.end_sp + 1))
                .collect::<Vec<_>>(),
            vec![(1, 2), (1, 3), (1, 4), (1, 5)]
        );
        assert_eq!(g.forward[3].len(), 1);
        // Backward ḡ_5 = ⟨(4,5),(3,5),(2,5),(1,5)⟩.
        assert_eq!(
            g.backward[3]
                .iter()
                .map(|c| (c.start_sp + 1, c.end_sp + 1))
                .collect::<Vec<_>>(),
            vec![(4, 5), (3, 5), (2, 5), (1, 5)]
        );
        assert_eq!(g.num_candidates(), 10);
    }

    #[test]
    fn each_group_covers_every_candidate_once() {
        for n in 2..12 {
            let g = build_groups(n);
            let all: BTreeSet<Candidate> = enumerate_candidates(n).into_iter().collect();
            let fwd: Vec<Candidate> = g.forward.iter().flatten().copied().collect();
            let bwd: Vec<Candidate> = g.backward.iter().flatten().copied().collect();
            assert_eq!(fwd.len(), all.len());
            assert_eq!(bwd.len(), all.len());
            assert_eq!(fwd.iter().copied().collect::<BTreeSet<_>>(), all);
            assert_eq!(bwd.iter().copied().collect::<BTreeSet<_>>(), all);
        }
    }

    #[test]
    fn flat_orders_match_subgroup_concatenation() {
        for n in 2..10 {
            let g = build_groups(n);
            let fwd_cat: Vec<Candidate> = g.forward.iter().flatten().copied().collect();
            assert_eq!(fwd_cat, forward_flat_order(n));
            let bwd_cat: Vec<Candidate> = g.backward.iter().flatten().copied().collect();
            assert_eq!(bwd_cat, backward_flat_order(n));
        }
    }

    #[test]
    fn forward_subgroups_share_start_backward_share_end() {
        let g = build_groups(8);
        for (i, sub) in g.forward.iter().enumerate() {
            assert!(sub.iter().all(|c| c.start_sp == i));
            assert!(sub.windows(2).all(|w| w[0].end_sp < w[1].end_sp));
        }
        for (k, sub) in g.backward.iter().enumerate() {
            assert!(sub.iter().all(|c| c.end_sp == k + 1));
            assert!(sub.windows(2).all(|w| w[0].start_sp > w[1].start_sp));
        }
    }

    #[test]
    #[should_panic(expected = "at least two stay points")]
    fn one_stay_point_rejected() {
        let _ = build_groups(1);
    }

    #[test]
    fn flat_orders_are_empty_below_two_stay_points() {
        for n in 0..2 {
            assert!(forward_flat_order(n).is_empty(), "n={n}");
            assert!(backward_flat_order(n).is_empty(), "n={n}");
        }
    }
}
