//! The fragment join order: the one place the store decides in which
//! order a JUCQ's fragment results are joined. The planner's join
//! steps, per-step estimates and SIP filters are this result, and the
//! internal cost model prices the same steps.

use crate::ir::VarId;
use crate::stats::FragmentSummary;

/// One position of the fragment join order. The first step is the seed
/// (empty `key`, `est_rows` its own estimate); every later step joins
/// `fragment` to everything before it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// The fragment joined in at this step.
    pub fragment: usize,
    /// The join key: the variables `fragment`'s head shares with the
    /// fragments before it, in accumulated-schema order — exactly the
    /// key the join kernels derive from the two inputs' schemas. Empty
    /// for the seed and for a cartesian product.
    pub key: Vec<VarId>,
    /// Estimated rows once this step's fragment is joined in.
    pub est_rows: f64,
}

/// Choose the order in which fragments are joined, from their summaries
/// and heads alone (pure arithmetic — it runs on every uncached plan).
///
/// The seed is the fragment with the fewest estimated rows. Every later
/// step takes, among the fragments *connected* to the accumulated schema
/// (sharing a head variable with it), the one whose join is estimated to
/// output the fewest rows; only when nothing connected remains is a
/// disconnected fragment joined, as a cartesian product, by the same
/// measure. Ties go to the smaller fragment and then to the lower index,
/// so the order is deterministic (plan-cache keys rely on that).
pub fn fragment_join_order(summaries: &[FragmentSummary], heads: &[&[VarId]]) -> Vec<JoinStep> {
    debug_assert_eq!(summaries.len(), heads.len());
    let mut remaining: Vec<usize> = (0..summaries.len()).collect();
    let Some(seed) =
        remaining.iter().copied().min_by(|&a, &b| summaries[a].rows.total_cmp(&summaries[b].rows))
    else {
        return Vec::new();
    };
    remaining.retain(|&i| i != seed);
    let mut acc = summaries[seed].clone();
    let mut acc_vars: Vec<VarId> = heads[seed].to_vec();
    let mut order = vec![JoinStep { fragment: seed, key: Vec::new(), est_rows: acc.rows }];
    while !remaining.is_empty() {
        let connected = |i: &usize| heads[*i].iter().any(|v| acc_vars.contains(v));
        let any_connected = remaining.iter().any(connected);
        let (_, _, next) = remaining
            .iter()
            .copied()
            .filter(|i| !any_connected || connected(i))
            .map(|i| (acc.join_rows(&summaries[i]), summaries[i].rows, i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)))
            .expect("remaining is non-empty");
        remaining.retain(|&i| i != next);
        let key: Vec<VarId> =
            acc_vars.iter().copied().filter(|v| heads[next].contains(v)).collect();
        acc.join(&summaries[next]);
        for &v in heads[next] {
            if !acc_vars.contains(&v) {
                acc_vars.push(v);
            }
        }
        order.push(JoinStep { fragment: next, key, est_rows: acc.rows });
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(rows: f64, domains: &[(VarId, f64)]) -> FragmentSummary {
        FragmentSummary { rows, domains: domains.to_vec() }
    }

    fn fragments(order: &[JoinStep]) -> Vec<usize> {
        order.iter().map(|s| s.fragment).collect()
    }

    #[test]
    fn joins_the_selective_edge_before_the_second_membership() {
        // Q28/SCQ: two memberships sharing ?2 (10 values) and an edge
        // between their subjects. Edge-first keeps every intermediate
        // at the edge's size; membership ⋈ membership is the square.
        let summaries = [
            frag(1000.0, &[(0, 1000.0), (2, 10.0)]),
            frag(1000.0, &[(1, 1000.0), (2, 10.0)]),
            frag(1100.0, &[(0, 1000.0), (1, 1000.0)]),
        ];
        let heads: [&[VarId]; 3] = [&[0, 2], &[1, 2], &[0, 1]];
        let order = fragment_join_order(&summaries, &heads);
        assert_eq!(fragments(&order), vec![0, 2, 1]);
        assert_eq!(order[0].key, Vec::<VarId>::new());
        assert_eq!(order[1].key, vec![0]);
        assert_eq!(order[2].key, vec![2, 1], "accumulated-schema order");
        assert_eq!(order[1].est_rows, 1100.0);
        assert!(order[2].est_rows < 1100.0);
    }

    #[test]
    fn equal_estimates_fall_back_to_smaller_fragment_then_index() {
        // Both candidates join to the same estimate (1 × rows / rows).
        let summaries = [
            frag(1.0, &[(0, 1.0)]),
            frag(8.0, &[(0, 8.0), (1, 8.0)]),
            frag(4.0, &[(0, 4.0), (2, 4.0)]),
            frag(4.0, &[(0, 4.0), (3, 4.0)]),
        ];
        let heads: [&[VarId]; 4] = [&[0], &[0, 1], &[0, 2], &[0, 3]];
        let order = fragment_join_order(&summaries, &heads);
        assert_eq!(fragments(&order), vec![0, 2, 3, 1]);
        // The seed itself ties to the lower index.
        let twins = [frag(5.0, &[(0, 5.0)]), frag(5.0, &[(0, 5.0)])];
        let heads: [&[VarId]; 2] = [&[0], &[0]];
        assert_eq!(fragments(&fragment_join_order(&twins, &heads)), vec![0, 1]);
    }

    #[test]
    fn a_disconnected_fragment_is_joined_last() {
        // Fragment 1 shares nothing with the others, and its product
        // with the seed (2 × 3) is estimated far below the connected
        // join (2 × 500 / 2): the connected fragment still goes first.
        let summaries =
            [frag(2.0, &[(0, 2.0)]), frag(3.0, &[(5, 3.0)]), frag(500.0, &[(0, 2.0), (1, 500.0)])];
        let heads: [&[VarId]; 3] = [&[0], &[5], &[0, 1]];
        let order = fragment_join_order(&summaries, &heads);
        assert_eq!(fragments(&order), vec![0, 2, 1]);
        assert_eq!(order[1].key, vec![0]);
        assert!(order[2].key.is_empty(), "a cartesian step has no key");
        assert_eq!(order[2].est_rows, order[1].est_rows * 3.0);
        // As the smallest fragment it seeds the order, and the forced
        // product takes the smaller of the other two.
        let summaries = [summaries[0].clone(), frag(1.0, &[(5, 1.0)]), summaries[2].clone()];
        let order = fragment_join_order(&summaries, &heads);
        assert_eq!(fragments(&order), vec![1, 0, 2]);
    }

    #[test]
    fn no_fragments_no_steps() {
        assert!(fragment_join_order(&[], &[]).is_empty());
    }
}
