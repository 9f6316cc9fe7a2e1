//! The `plan_cache.size` gauge lives in the process-global jucq-obs
//! registry, and every `PlanCache` in the process writes it while
//! collection is on. In the library's test binary other tests fill their
//! own caches concurrently, so this check runs in a process of its own:
//! it is the binary's only test.

use jucq_core::model::{TermId, TermKind};
use jucq_core::plan_cache::{PlanCache, PlanKey};
use jucq_core::reformulation::{BgpQuery, Cover};
use jucq_core::store::{PatternTerm, StorePattern};

fn query(p: u32) -> BgpQuery {
    let pattern = StorePattern::new(
        PatternTerm::Var(0),
        PatternTerm::Const(TermId::new(TermKind::Uri, p)),
        PatternTerm::Var(1),
    );
    BgpQuery::new(vec![0], vec![pattern])
}

#[test]
fn size_gauge_tracks_put_evict_and_clear() {
    jucq_obs::reset();
    jucq_obs::set_enabled(true);
    let mut c = PlanCache::new(2);
    for p in 1..=3u32 {
        let q = query(p);
        let cover = Cover::single_fragment(&q).unwrap();
        c.put(PlanKey::new(q, "GCov", "pg-like"), cover, None);
    }
    // Capacity 2, three puts: one eviction, size stays 2.
    assert_eq!(jucq_obs::global().snapshot().gauges["plan_cache.size"], 2.0);
    c.clear();
    let snap = jucq_obs::global().snapshot();
    jucq_obs::set_enabled(false);
    assert_eq!(snap.gauges["plan_cache.size"], 0.0, "clear() resets the gauge");
    assert_eq!(snap.counter("plan_cache.evictions"), 1);
}
