//! ECov — the exhaustive query cover algorithm (§4.2).
//!
//! "As a yardstick for the quality of the query covers we find, we
//! developed an exhaustive query cover finding algorithm ... that
//! traverses the search space of reformulated queries and outputs a
//! query cover leading to a cover-based reformulation with lowest
//! cost." ECov enumerates every valid cover (Definition 3.3 plus
//! fragment connectivity), estimates each one's cost, and returns the
//! cheapest. Like the paper's ECov — which "times out while exploring
//! (exhaustively) the huge query covers search space" of the 10-atom
//! DBLP Q10 — the enumeration is bounded by a wall-clock budget and a
//! state cap, and is *anytime*: the best cover seen so far is returned
//! with `truncated = true`.

use std::time::{Duration, Instant};

use jucq_model::FxHashSet;
use jucq_reformulation::{bits, AtomMask, AtomMasks, Cover, CoverError};

use crate::search::{CoverSearch, CoverSearchResult};

/// Hard cap on enumeration states, protecting against combinatorial
/// blowup even under a generous time budget.
const STATE_CAP: usize = 2_000_000;

/// All connected subsets of the query's atoms, ascending — or `None`
/// past [`STATE_CAP`] of them.
fn connected_subsets(masks: &AtomMasks) -> Option<Vec<AtomMask>> {
    let mut frontier: Vec<AtomMask> = (0..masks.len()).map(|i| 1 << i).collect();
    let mut seen: FxHashSet<AtomMask> = frontier.iter().copied().collect();
    while let Some(mask) = frontier.pop() {
        for j in bits(masks.neighbours_of(mask) & !mask) {
            let next = mask | 1 << j;
            if seen.insert(next) {
                if seen.len() > STATE_CAP {
                    return None;
                }
                frontier.push(next);
            }
        }
    }
    let mut out: Vec<AtomMask> = seen.into_iter().collect();
    out.sort_unstable();
    Some(out)
}

/// Run ECov: exhaustively enumerate covers and return the cheapest.
///
/// A query with no valid cover at all — a disconnected body — returns
/// the [`CoverError`] from the single-fragment fallback instead of
/// panicking.
pub fn ecov(search: &CoverSearch<'_>, budget: Duration) -> Result<CoverSearchResult, CoverError> {
    jucq_obs::span!("cover_search");
    let started = Instant::now();
    let masks = search.masks()?;
    let full = masks.full();
    let subsets = connected_subsets(masks);

    let mut best: Option<(Cover, f64)> = None;
    let mut completed: FxHashSet<Cover> = FxHashSet::default();
    let mut states = 0usize;
    let mut truncated = subsets.is_none();

    // DFS state: chosen fragments (antichain) + covered mask.
    let mut stack: Vec<(Vec<AtomMask>, AtomMask)> = vec![(Vec::new(), 0)];
    while let (Some((chosen, covered)), Some(subsets)) = (stack.pop(), &subsets) {
        states += 1;
        if states > STATE_CAP || started.elapsed() > budget {
            truncated = true;
            break;
        }
        if covered == full {
            let Ok(cover) = Cover::from_masks(masks, chosen) else {
                continue;
            };
            if !completed.insert(cover.clone()) {
                continue;
            }
            let cost = search.cover_cost(&cover);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((cover, cost));
            }
            continue;
        }
        // Cover the lowest uncovered atom.
        let target = 1 << (!covered & full).trailing_zeros();
        for &frag in subsets {
            if frag & target == 0 {
                continue;
            }
            // Maintain the antichain property (no fragment included in
            // another).
            if chosen.iter().any(|&c| (c & frag) == c || (c & frag) == frag) {
                continue;
            }
            let mut next = chosen.clone();
            next.push(frag);
            stack.push((next, covered | frag));
        }
    }

    let (cover, estimated_cost) = match best {
        Some(found) => found,
        None => {
            // Degenerate fallback: the single-fragment cover exists for
            // every connected query; a disconnected one has no valid
            // cover, and the error propagates.
            let cover = Cover::from_masks(masks, vec![full])?;
            let cost = search.cover_cost(&cover);
            (cover, cost)
        }
    };
    Ok(CoverSearchResult {
        cover,
        estimated_cost,
        explored: search.explored(),
        elapsed: started.elapsed(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{triple, var, Fixture};
    use jucq_reformulation::BgpQuery;

    fn fixture() -> Fixture {
        let mut triples = vec![
            triple("P", jucq_model::vocab::RDFS_SUBCLASS_OF, "Q"),
            triple("p1", jucq_model::vocab::RDFS_DOMAIN, "P"),
        ];
        for i in 0..20 {
            triples.push(triple(&format!("s{i}"), "p1", &format!("o{i}")));
            triples.push(triple(&format!("s{i}"), "p2", "hub"));
        }
        Fixture::new(&triples)
    }

    fn star_query(f: &Fixture, arms: u16) -> BgpQuery {
        let arm = |i| f.atom(var(0), if i % 2 == 0 { "p1" } else { "p2" }, var(i + 1));
        BgpQuery::new(vec![0], (0..arms).map(arm).collect())
    }

    fn run(f: &Fixture, q: &BgpQuery, budget: Duration) -> CoverSearchResult {
        f.with_search(q, |search, _| ecov(&search, budget).unwrap())
    }

    #[test]
    fn single_atom_query_has_one_cover() {
        let f = fixture();
        let q = star_query(&f, 1);
        let r = run(&f, &q, Duration::from_secs(5));
        assert_eq!(r.cover.len(), 1);
        assert!(!r.truncated);
        assert_eq!(r.explored, 1);
    }

    #[test]
    fn two_atom_query_explores_both_extremes() {
        let f = fixture();
        let q = star_query(&f, 2);
        let r = run(&f, &q, Duration::from_secs(5));
        // Covers of 2 connected atoms: {{0,1}}, {{0},{1}} and the
        // overlapping {{0,1}} variants; at least the two extremes.
        assert!(r.explored >= 2, "explored {}", r.explored);
        assert!(r.estimated_cost.is_finite());
        assert!(!r.truncated);
    }

    #[test]
    fn explored_counts_grow_with_atoms() {
        let f = fixture();
        let small = run(&f, &star_query(&f, 2), Duration::from_secs(5)).explored;
        let large = run(&f, &star_query(&f, 4), Duration::from_secs(5)).explored;
        assert!(large > small, "4-atom space ({large}) larger than 2-atom ({small})");
    }

    #[test]
    fn best_cover_is_cheapest_explored() {
        let f = fixture();
        let q = star_query(&f, 3);
        f.with_search(&q, |search, _| {
            let r = ecov(&search, Duration::from_secs(5)).unwrap();
            // Re-costing the returned cover must reproduce the reported cost.
            let recost = search.cover_cost(&r.cover);
            assert!((recost - r.estimated_cost).abs() < 1e-9);
            // And it must beat (or tie) the two fixed extremes.
            let ucq_cost = search.cover_cost(&Cover::single_fragment(&q).unwrap());
            let scq_cost = search.cover_cost(&Cover::singletons(&q).unwrap());
            assert!(r.estimated_cost <= ucq_cost + 1e-9);
            assert!(r.estimated_cost <= scq_cost + 1e-9);
        });
    }

    #[test]
    fn zero_budget_truncates_but_returns() {
        let f = fixture();
        let q = star_query(&f, 4);
        let r = run(&f, &q, Duration::from_millis(0));
        assert!(r.truncated);
        assert!(r.estimated_cost.is_finite());
    }

    #[test]
    fn connected_subsets_of_a_path() {
        // Path query x-p-y-p-z: subsets {0},{1},{0,1} ⇒ 3.
        let f = fixture();
        let q = BgpQuery::new(
            vec![0],
            vec![f.atom(var(0), "p1", var(1)), f.atom(var(1), "p1", var(2))],
        );
        let masks = q.atom_masks().unwrap();
        assert_eq!(connected_subsets(&masks), Some(vec![0b01, 0b10, 0b11]));
    }
}
