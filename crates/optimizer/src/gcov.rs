//! GCov — the greedy query cover algorithm (§4.3, Algorithm 1).
//!
//! GCov starts from the all-singletons cover `C₀ = {{t₁},…,{tₙ}}` and
//! explores *moves*: adding to one fragment an extra triple connected to
//! it by a join variable. Moves whose resulting cover does not degrade
//! the best cost are kept in a list sorted by increasing estimated
//! cost; the search repeatedly applies the most promising move,
//! breadth-first and greedily, updating the best cover whenever a move
//! improves on it. After every cover update, fragments made redundant by
//! the move are pruned in decreasing-cost order (the paper's sorted
//! redundancy check). The algorithm is anytime; an optional move cap and
//! time budget bound the search.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use jucq_model::FxHashSet;
use jucq_reformulation::{bits, Cover, CoverError};

use crate::search::{CoverSearch, CoverSearchResult};

/// Cost-ordered move list keyed by (cost bits, tiebreak counter).
struct MoveList {
    map: BTreeMap<(u64, u64), Cover>,
    counter: u64,
}

impl MoveList {
    fn new() -> Self {
        MoveList { map: BTreeMap::new(), counter: 0 }
    }

    fn push(&mut self, cost: f64, cover: Cover) {
        // f64 bits of non-negative costs (incl. +inf) order
        // consistently. NaN is mapped to +inf explicitly: `max(0.0)`
        // would silently turn it into the bits of 0.0, making a poisoned
        // estimate the *cheapest* move in the list.
        debug_assert!(!cost.is_nan(), "NaN cover cost pushed to move list");
        let cost = if cost.is_nan() { f64::INFINITY } else { cost.max(0.0) };
        let key = (cost.to_bits(), self.counter);
        self.counter += 1;
        self.map.insert(key, cover);
    }

    fn pop_min(&mut self) -> Option<(f64, Cover)> {
        self.map.pop_first().map(|((cost, _), cover)| (f64::from_bits(cost), cover))
    }
}

/// Run GCov (Algorithm 1). `max_moves` bounds the number of applied
/// moves; `budget` bounds wall-clock time (the paper notes "one could
/// easily change the stop condition").
///
/// Queries with no valid starting cover — a disconnected body, whose
/// singleton fragments would be mutually isolated — return the
/// [`CoverError`] instead of panicking; the caller decides whether to
/// fall back to saturation or surface the error.
pub fn gcov(
    search: &CoverSearch<'_>,
    budget: Duration,
    max_moves: usize,
) -> Result<CoverSearchResult, CoverError> {
    jucq_obs::span!("cover_search");
    let started = Instant::now();
    let masks = search.masks()?;

    let c0 = Cover::from_masks(masks, (0..masks.len()).map(|i| 1 << i).collect())?;
    let mut best_cost = search.cover_cost(&c0);
    let mut best = c0.clone();

    let mut analysed: FxHashSet<Cover> = FxHashSet::default();
    analysed.insert(c0.clone());
    let mut moves = MoveList::new();
    let mut truncated = false;

    // Develop the moves available from a cover; push those not worse
    // than the current best.
    let develop = |cover: &Cover,
                   best_cost: f64,
                   analysed: &mut FxHashSet<Cover>,
                   moves: &mut MoveList,
                   strict: bool| {
        for (fi, &frag) in cover.masks().iter().enumerate() {
            // The added triple must join the fragment.
            for t in bits(masks.neighbours_of(frag) & !frag) {
                let Some(next) = cover.add_atom(masks, fi, t) else {
                    continue;
                };
                let next = next.prune_redundant_by(masks, |f| search.fragment_cost(f));
                if !analysed.insert(next.clone()) {
                    continue;
                }
                let cost = search.cover_cost(&next);
                let keep = if strict { cost < best_cost } else { cost <= best_cost };
                if keep {
                    moves.push(cost, next);
                }
            }
        }
    };

    // Initial moves from C₀ (Algorithm 1, lines 4–7: kept when not
    // worse than the best cost so far).
    develop(&c0, best_cost, &mut analysed, &mut moves, false);

    // Greedy best-first exploration (lines 8–16).
    let mut applied = 0usize;
    while let Some((cost, cover)) = moves.pop_min() {
        if applied >= max_moves || started.elapsed() > budget {
            truncated = true;
            break;
        }
        applied += 1;
        if cost <= best_cost {
            best_cost = cost;
            best = cover.clone();
        }
        // New moves must strictly improve on the best (line 15).
        develop(&cover, best_cost, &mut analysed, &mut moves, true);
    }

    Ok(CoverSearchResult {
        cover: best,
        estimated_cost: best_cost,
        explored: search.explored(),
        elapsed: started.elapsed(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecov::ecov;
    use crate::fixture::{triple, var, Fixture};
    use jucq_reformulation::BgpQuery;

    /// A dataset where a selective atom (p_sel) pairs with an expensive
    /// reformulation-heavy atom (rdf:type with a deep hierarchy), so
    /// grouping matters.
    fn fixture() -> Fixture {
        let mut triples = Vec::new();
        // Class hierarchy: C0 ⊒ C1 ⊒ ... ⊒ C5; several domain props.
        for i in 0..5 {
            let (sub, sup) = (format!("C{}", i + 1), format!("C{i}"));
            triples.push(triple(&sub, jucq_model::vocab::RDFS_SUBCLASS_OF, &sup));
            triples.push(triple(&format!("d{i}"), jucq_model::vocab::RDFS_DOMAIN, &sup));
        }
        for i in 0..200 {
            triples.push(triple(&format!("e{i}"), "d0", "x"));
            triples.push(triple(
                &format!("e{i}"),
                jucq_model::vocab::RDF_TYPE,
                &format!("C{}", i % 6),
            ));
        }
        // p_sel: very selective.
        triples.push(triple("e0", "psel", "target"));
        Fixture::new(&triples)
    }

    /// `q(x):- (x τ C0), (x psel y), (x d0 z)`.
    fn query(f: &Fixture) -> BgpQuery {
        BgpQuery::new(
            vec![0],
            vec![
                f.atom(var(0), "a", f.uri("C0")),
                f.atom(var(0), "psel", var(1)),
                f.atom(var(0), "d0", var(2)),
            ],
        )
    }

    #[test]
    fn gcov_completes_and_returns_valid_cover() {
        let f = fixture();
        let r =
            f.with_search(&query(&f), |s, _| gcov(&s, Duration::from_secs(10), 10_000).unwrap());
        assert!(!r.truncated);
        assert!(r.estimated_cost.is_finite());
        let covered = r.cover.masks().iter().fold(0, |u, f| u | f);
        assert_eq!(covered, 0b111, "all atoms covered");
    }

    #[test]
    fn gcov_not_worse_than_singletons() {
        let f = fixture();
        let q = query(&f);
        f.with_search(&q, |search, _| {
            let r = gcov(&search, Duration::from_secs(10), 10_000).unwrap();
            let scq_cost = search.cover_cost(&Cover::singletons(&q).unwrap());
            assert!(r.estimated_cost <= scq_cost + 1e-12);
        });
    }

    #[test]
    fn gcov_explores_fewer_covers_than_ecov() {
        let f = fixture();
        let q = query(&f);
        let g = f.with_search(&q, |s, _| gcov(&s, Duration::from_secs(10), 10_000).unwrap());
        let e = f.with_search(&q, |s, _| ecov(&s, Duration::from_secs(10)).unwrap());
        assert!(g.explored <= e.explored, "gcov {} vs ecov {}", g.explored, e.explored);
        // The greedy result should be close to the exhaustive optimum
        // (paper: "GCov JUCQ performs as well as the ECov one").
        assert!(g.estimated_cost <= e.estimated_cost * 4.0 + 1e-9);
    }

    #[test]
    fn move_list_orders_by_cost() {
        let f = fixture();
        let c = Cover::singletons(&query(&f)).unwrap();
        let mut ml = MoveList::new();
        ml.push(5.0, c.clone());
        ml.push(1.0, c.clone());
        ml.push(3.0, c);
        let (a, _) = ml.pop_min().unwrap();
        let (b, _) = ml.pop_min().unwrap();
        let (z, _) = ml.pop_min().unwrap();
        assert_eq!((a, b, z), (1.0, 3.0, 5.0));
        assert!(ml.pop_min().is_none());
    }

    #[test]
    fn single_atom_query_trivially_best() {
        let f = fixture();
        let q = BgpQuery::new(vec![0], vec![f.atom(var(0), "psel", var(1))]);
        let r = f.with_search(&q, |s, _| gcov(&s, Duration::from_secs(5), 100).unwrap());
        assert_eq!(r.cover.len(), 1);
        assert_eq!(r.explored, 1, "no moves available");
    }
}
