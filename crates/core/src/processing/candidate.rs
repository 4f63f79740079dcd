//! Candidate trajectory generation (Section III, Definition 4): every ordered
//! pair of stay points.

/// A candidate trajectory `⟨sp_{start} --→ sp_{end}⟩`, identified by its
/// starting and ending stay-point indexes (`start_sp < end_sp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Candidate {
    /// Index of the starting stay point.
    pub start_sp: usize,
    /// Index of the ending stay point (strictly greater).
    pub end_sp: usize,
}

impl Candidate {
    /// Creates a candidate.
    ///
    /// # Panics
    /// Panics unless `start_sp < end_sp`.
    pub fn new(start_sp: usize, end_sp: usize) -> Self {
        assert!(
            start_sp < end_sp,
            "candidate must span at least two stay points"
        );
        Self { start_sp, end_sp }
    }
}

/// Enumerates all candidates over `n` stay points in the paper's canonical
/// (forward-flattening) order: `(0,1), (0,2), …, (0,n−1), (1,2), …, (n−2,n−1)`.
///
/// Produces `n·(n−1)/2` candidates; `n < 2` yields none.
pub fn enumerate_candidates(n: usize) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push(Candidate {
                start_sp: i,
                end_sp: j,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_is_n_choose_2() {
        for n in 0..20 {
            assert_eq!(enumerate_candidates(n).len(), n * n.saturating_sub(1) / 2);
        }
        // The paper's extremes: 3 stay points → 3 candidates, 14 → 91.
        assert_eq!(enumerate_candidates(3).len(), 3);
        assert_eq!(enumerate_candidates(14).len(), 91);
    }

    #[test]
    fn order_is_forward_canonical() {
        let c = enumerate_candidates(4);
        let expect: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        assert_eq!(
            c.iter().map(|c| (c.start_sp, c.end_sp)).collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn all_pairs_distinct_and_ordered() {
        let c = enumerate_candidates(10);
        let mut seen = std::collections::BTreeSet::new();
        for cand in &c {
            assert!(cand.start_sp < cand.end_sp);
            assert!(seen.insert(*cand), "duplicate {cand:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two stay points")]
    fn degenerate_candidate_rejected() {
        let _ = Candidate::new(3, 3);
    }
}
