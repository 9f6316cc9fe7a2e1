//! Plan caching: amortize cover-search and physical-planning time
//! across repeated queries.
//!
//! GCov/ECov planning is cheap next to a bad evaluation, but it is not
//! free (Figures 7–8: up to seconds on reformulation-heavy queries). A
//! chosen [`Cover`] depends only on the *query structure* and the
//! statistics snapshot — and by Theorem 3.1 **any** valid cover answers
//! correctly — so a cached cover stays sound across arbitrary data
//! updates; at worst it drifts from the cost optimum as statistics
//! move. Covers are therefore carried through incremental updates and
//! only dropped when a batch changes the schema closure (a schema
//! statement or new vocabulary).
//!
//! Each entry is keyed by `(query, strategy, profile)`: the cost model
//! guiding the search — and the physical plan lowered from the chosen
//! cover — both depend on the engine profile, so switching profiles
//! must not resurrect plans chosen for another engine's strengths.
//!
//! Alongside the cover, an entry can carry the **physical plan** the
//! store lowered for the reformulated JUCQ ([`jucq_store::Plan`]).
//! Unlike covers, physical plans depend on the data they were lowered
//! against: besides join orders and shared-scan choices derived from
//! the statistics, the planner drops every union member whose extent
//! was empty and bridges interval gaps it proved empty on that data's
//! index. A plan is therefore only ever served to the snapshot it was
//! lowered for: every publication that changes data, and every view
//! pin, starts a new cache instance ([`PlanCache::successor`]) with no
//! plans, so a reader still on the old snapshot can only attach its
//! plans to the old instance.
//!
//! Covers and plans are held behind [`Arc`], so a hit hands out a
//! shared pointer instead of deep-cloning on the hot path.

use std::collections::VecDeque;
use std::sync::Arc;

use jucq_model::FxHashMap;
use jucq_reformulation::{BgpQuery, Cover};
use jucq_store::Plan;

/// The cache key: the exact query, the strategy family that chose the
/// cover (ECov and GCov choices are cached separately), and the engine
/// profile the cost model scored under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    query: BgpQuery,
    strategy: &'static str,
    profile: String,
}

impl PlanKey {
    /// Build a key.
    pub fn new(query: BgpQuery, strategy: &'static str, profile: &str) -> Self {
        PlanKey { query, strategy, profile: profile.to_string() }
    }
}

/// Hit/miss counters, for diagnostics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Cover lookups answered from the cache.
    pub hits: usize,
    /// Cover lookups that required a fresh search.
    pub misses: usize,
    /// Entries evicted by the FIFO bound.
    pub evictions: usize,
    /// Physical-plan lookups answered from the cache.
    pub plan_hits: usize,
    /// Physical-plan lookups that required fresh lowering.
    pub plan_misses: usize,
}

/// One cached entry: the chosen cover plus, optionally, the physical
/// plan lowered for one exact (non-canonical) query form. The plan slot
/// remembers which exact query it was lowered for: canonical keys are
/// shared by isomorphic queries, but a physical plan's variable ids are
/// those of one concrete query.
#[derive(Debug)]
struct Entry {
    cover: Arc<Cover>,
    explored: Option<usize>,
    plan: Option<(BgpQuery, Arc<Plan>)>,
}

/// A bounded FIFO cover + physical-plan cache.
#[derive(Debug)]
pub struct PlanCache {
    map: FxHashMap<PlanKey, Entry>,
    order: VecDeque<PlanKey>,
    capacity: usize,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: PlanCacheStats::default(),
        }
    }

    fn publish_size(&self) {
        jucq_obs::metrics::gauge_set("plan_cache.size", self.map.len() as f64);
    }

    /// Look up a cached cover (and the covers-explored count of the
    /// original search, for reporting). Hits share the stored cover —
    /// no deep clone.
    pub fn get(&mut self, key: &PlanKey) -> Option<(Arc<Cover>, Option<usize>)> {
        match self.map.get(key) {
            Some(e) => {
                self.stats.hits += 1;
                jucq_obs::metrics::counter_add("plan_cache.hits", 1);
                Some((Arc::clone(&e.cover), e.explored))
            }
            None => {
                self.stats.misses += 1;
                jucq_obs::metrics::counter_add("plan_cache.misses", 1);
                None
            }
        }
    }

    /// Store a cover under `key`, evicting the oldest entry when full.
    /// Replacing a cover drops any physical plan lowered for the old one.
    pub fn put(&mut self, key: PlanKey, cover: Cover, explored: Option<usize>) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = Entry { cover: Arc::new(cover), explored, plan: None };
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                self.stats.evictions += 1;
                jucq_obs::metrics::counter_add("plan_cache.evictions", 1);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, Entry { cover: Arc::new(cover), explored, plan: None });
        self.publish_size();
    }

    /// Look up the physical plan cached for `key`, provided it was
    /// lowered for exactly `query` (isomorphic-but-renamed queries share
    /// the cover, not the plan). Counts a plan hit or miss.
    pub fn get_plan(&mut self, key: &PlanKey, query: &BgpQuery) -> Option<Arc<Plan>> {
        let hit = self
            .map
            .get(key)
            .and_then(|e| e.plan.as_ref())
            .filter(|(q, _)| q == query)
            .map(|(_, p)| Arc::clone(p));
        if hit.is_some() {
            self.stats.plan_hits += 1;
            jucq_obs::metrics::counter_add("plan_cache.plan_hits", 1);
        } else {
            self.stats.plan_misses += 1;
            jucq_obs::metrics::counter_add("plan_cache.plan_misses", 1);
        }
        hit
    }

    /// Attach the physical plan lowered for `query` to the entry at
    /// `key`. No-op when the entry is absent (evicted between the cover
    /// search and the lowering).
    pub fn attach_plan(&mut self, key: &PlanKey, query: BgpQuery, plan: Arc<Plan>) {
        if let Some(e) = self.map.get_mut(key) {
            e.plan = Some((query, plan));
        }
    }

    /// Change the capacity **without** dropping entries or counters: a
    /// no-op at the current capacity, room for more entries when grown,
    /// FIFO eviction of the oldest entries when shrunk. This is what
    /// [`enable_plan_cache`](crate::RdfDatabase::enable_plan_cache)
    /// calls on re-enable, so a profile reload can never silently wipe
    /// a warm cache.
    pub fn resize(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.map.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                self.stats.evictions += 1;
                jucq_obs::metrics::counter_add("plan_cache.evictions", 1);
            }
        }
        self.publish_size();
    }

    /// The FIFO bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cache a new snapshot starts from: the same capacity and
    /// hit/miss counters, no physical plans, and this cache's covers
    /// when `keep_covers` (a data update: covers stay sound, Theorem
    /// 3.1) or none (a batch that changed the schema closure the covers
    /// were chosen under).
    pub fn successor(&self, keep_covers: bool) -> PlanCache {
        let mut next = PlanCache::new(self.capacity);
        next.stats = self.stats;
        if keep_covers {
            next.order = self.order.clone();
            next.map = self
                .map
                .iter()
                .map(|(key, e)| {
                    let entry =
                        Entry { cover: Arc::clone(&e.cover), explored: e.explored, plan: None };
                    (key.clone(), entry)
                })
                .collect();
        }
        next.publish_size();
        next
    }

    /// Drop every cached physical plan in place, keeping the covers.
    pub fn clear_plans(&mut self) {
        for e in self.map.values_mut() {
            e.plan = None;
        }
    }

    /// Drop every entry (keeps counters).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.publish_size();
    }

    /// Cached plan count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::TermId;
    use jucq_store::{EngineProfile, PatternTerm, Planner, Store, StorePattern};

    fn query(p: u32) -> BgpQuery {
        BgpQuery::new(
            vec![0],
            vec![StorePattern::new(
                PatternTerm::Var(0),
                PatternTerm::Const(TermId::new(TermKind::Uri, p)),
                PatternTerm::Var(1),
            )],
        )
    }

    fn cover(q: &BgpQuery) -> Cover {
        Cover::single_fragment(q).unwrap()
    }

    fn key(q: &BgpQuery, strategy: &'static str) -> PlanKey {
        PlanKey::new(q.clone(), strategy, "pg-like")
    }

    fn physical_plan(q: &BgpQuery) -> Arc<Plan> {
        let store = Store::from_triples(&[], EngineProfile::pg_like());
        let jucq = jucq_store::StoreJucq::from_ucq(jucq_store::StoreUcq::new(
            vec![q.to_store_cq()],
            q.head.clone(),
        ));
        Arc::new(Planner::new(store.tables(), store.stats(), store.profile()).plan(&jucq))
    }

    #[test]
    fn hit_after_put() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        let key = key(&q, "GCov");
        assert!(c.get(&key).is_none());
        c.put(key.clone(), cover(&q), Some(7));
        let (got, explored) = c.get(&key).unwrap();
        assert_eq!(*got, cover(&q));
        assert_eq!(explored, Some(7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hits_share_one_cover_allocation() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        let key = key(&q, "GCov");
        c.put(key.clone(), cover(&q), None);
        let (a, _) = c.get(&key).unwrap();
        let (b, _) = c.get(&key).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits return the same shared cover");
        // Two borrows out plus the cache's own: three strong refs.
        assert_eq!(Arc::strong_count(&a), 3);
    }

    #[test]
    fn strategies_cached_separately() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        c.put(key(&q, "GCov"), cover(&q), None);
        assert!(c.get(&key(&q, "ECov")).is_none());
        assert!(c.get(&key(&q, "GCov")).is_some());
    }

    #[test]
    fn profiles_cached_separately() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        c.put(PlanKey::new(q.clone(), "GCov", "pg-like"), cover(&q), None);
        assert!(
            c.get(&PlanKey::new(q.clone(), "GCov", "mysql-like")).is_none(),
            "a cover chosen under pg-like costs must not serve mysql-like"
        );
        assert!(c.get(&PlanKey::new(q, "GCov", "pg-like")).is_some());
    }

    #[test]
    fn fifo_eviction() {
        let mut c = PlanCache::new(2);
        for p in 1..=3u32 {
            let q = query(p);
            c.put(key(&q, "GCov"), cover(&q), None);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(&key(&query(1), "GCov")).is_none(), "oldest evicted");
        assert!(c.get(&key(&query(3), "GCov")).is_some());
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c = PlanCache::new(2);
        let q = query(1);
        c.put(key(&q, "GCov"), cover(&q), None);
        c.get(&key(&q, "GCov"));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn physical_plan_round_trips_for_the_exact_query() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        let k = key(&q, "GCov");
        c.put(k.clone(), cover(&q), None);
        assert!(c.get_plan(&k, &q).is_none(), "no plan attached yet");
        let plan = physical_plan(&q);
        c.attach_plan(&k, q.clone(), Arc::clone(&plan));
        let got = c.get_plan(&k, &q).unwrap();
        assert!(Arc::ptr_eq(&got, &plan), "plan hits share one allocation");
        assert_eq!(c.stats().plan_hits, 1);
        assert_eq!(c.stats().plan_misses, 1);
    }

    #[test]
    fn physical_plan_misses_for_a_different_exact_query() {
        // Same canonical key, different concrete query (renamed vars):
        // the cover is shared, the physical plan is not.
        let mut c = PlanCache::new(4);
        let q = query(1);
        let k = key(&q, "GCov");
        c.put(k.clone(), cover(&q), None);
        c.attach_plan(&k, q.clone(), physical_plan(&q));
        let renamed = BgpQuery::new(
            vec![5],
            vec![StorePattern::new(
                PatternTerm::Var(5),
                PatternTerm::Const(TermId::new(TermKind::Uri, 1)),
                PatternTerm::Var(6),
            )],
        );
        assert!(c.get_plan(&k, &renamed).is_none());
        assert_eq!(c.stats().plan_misses, 1);
    }

    #[test]
    fn clear_plans_keeps_covers() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        let k = key(&q, "GCov");
        c.put(k.clone(), cover(&q), Some(3));
        c.attach_plan(&k, q.clone(), physical_plan(&q));
        c.clear_plans();
        assert!(c.get_plan(&k, &q).is_none(), "plans dropped");
        assert!(c.get(&k).is_some(), "covers survive");
    }

    #[test]
    fn successor_carries_counters_and_optionally_covers_but_never_plans() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        let k = key(&q, "GCov");
        c.put(k.clone(), cover(&q), Some(3));
        c.get(&k);
        c.attach_plan(&k, q.clone(), physical_plan(&q));
        c.get_plan(&k, &q);
        let before = c.stats();

        let mut next = c.successor(true);
        assert_eq!(next.stats(), before, "counters carry over");
        assert_eq!(next.capacity(), 4);
        assert!(next.get_plan(&k, &q).is_none(), "plans never carry over");
        let (carried, explored) = next.get(&k).expect("covers carry over");
        assert_eq!((*carried == cover(&q), explored), (true, Some(3)));
        assert!(c.get_plan(&k, &q).is_some(), "the old instance keeps its plan");

        let mut rebuilt = c.successor(false);
        assert!(rebuilt.is_empty(), "a rebuild carries no covers");
        assert_eq!(rebuilt.stats().hits, c.stats().hits);
        assert!(rebuilt.get(&k).is_none());
    }

    #[test]
    fn replacing_a_cover_drops_its_plan() {
        let mut c = PlanCache::new(4);
        let q = query(1);
        let k = key(&q, "GCov");
        c.put(k.clone(), cover(&q), Some(1));
        c.attach_plan(&k, q.clone(), physical_plan(&q));
        c.put(k.clone(), cover(&q), Some(2));
        assert!(c.get_plan(&k, &q).is_none(), "stale plan gone with the old cover");
        assert_eq!(c.get(&k).unwrap().1, Some(2));
    }

    #[test]
    fn resize_preserves_entries_and_stats() {
        let mut c = PlanCache::new(4);
        for p in 1..=3u32 {
            let q = query(p);
            c.put(key(&q, "GCov"), cover(&q), None);
        }
        c.get(&key(&query(1), "GCov"));
        // Growing (or restating) the capacity keeps everything.
        c.resize(8);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().hits, 1);
        assert!(c.get(&key(&query(1), "GCov")).is_some());
        // Shrinking evicts oldest-first, still keeping counters.
        c.resize(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().hits, 2);
        assert!(c.get(&key(&query(3), "GCov")).is_some(), "newest entry survives");
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = PlanCache::new(2);
        let q = query(1);
        let k = key(&q, "GCov");
        c.put(k.clone(), cover(&q), Some(1));
        c.put(k.clone(), cover(&q), Some(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k).unwrap().1, Some(2));
    }
}
