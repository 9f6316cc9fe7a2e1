//! Query-shape classification from the join graph of a BGP.
//!
//! The join graph has one node per variable and one edge per pair of
//! variables that co-occur in a triple pattern (parallel edges merged;
//! constants are leaves and never join). Shape, not size, is what
//! separates engines, so executor time is reported per shape.

use std::collections::{BTreeMap, BTreeSet};

use jucq_reformulation::BgpQuery;
use jucq_store::VarId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One variable occurs in every pattern.
    Star,
    /// Acyclic, no variable joins more than two others.
    Path,
    /// Acyclic, branching (snowflake).
    Tree,
    /// The join graph has a cycle.
    Cyclic,
}

impl Shape {
    pub const ALL: [Shape; 4] = [Shape::Star, Shape::Path, Shape::Tree, Shape::Cyclic];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Star => "star",
            Shape::Path => "path",
            Shape::Tree => "tree",
            Shape::Cyclic => "cyclic",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

pub fn classify(q: &BgpQuery) -> Shape {
    let mut edges: BTreeSet<(VarId, VarId)> = BTreeSet::new();
    for atom in &q.atoms {
        let vars = atom.variables();
        for (i, &a) in vars.iter().enumerate() {
            for &b in &vars[i + 1..] {
                edges.insert((a.min(b), a.max(b)));
            }
        }
    }
    let mut degree: BTreeMap<VarId, usize> = BTreeMap::new();
    for &(a, b) in &edges {
        *degree.entry(a).or_default() += 1;
        *degree.entry(b).or_default() += 1;
    }
    // A forest has exactly nodes − components edges; any more closes a
    // cycle. Workload queries are connected, but count components anyway.
    let nodes: Vec<VarId> = degree.keys().copied().collect();
    let mut component: BTreeMap<VarId, VarId> = nodes.iter().map(|&v| (v, v)).collect();
    fn find(component: &BTreeMap<VarId, VarId>, mut v: VarId) -> VarId {
        while component[&v] != v {
            v = component[&v];
        }
        v
    }
    for &(a, b) in &edges {
        let (ra, rb) = (find(&component, a), find(&component, b));
        if ra != rb {
            component.insert(ra, rb);
        }
    }
    let components = nodes.iter().filter(|&&v| find(&component, v) == v).count();
    if edges.len() > nodes.len() - components {
        return Shape::Cyclic;
    }
    let centre =
        q.variables().into_iter().any(|v| q.atoms.iter().all(|a| a.variables().contains(&v)));
    if centre {
        Shape::Star
    } else if degree.values().all(|&d| d <= 2) {
        Shape::Path
    } else {
        Shape::Tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::TermId;
    use jucq_store::{PatternTerm, StorePattern};

    fn q(atoms: &[(u16, u16)]) -> BgpQuery {
        let p = PatternTerm::Const(TermId::from_raw(1));
        let atoms: Vec<StorePattern> = atoms
            .iter()
            .map(|&(s, o)| StorePattern::new(PatternTerm::Var(s), p, PatternTerm::Var(o)))
            .collect();
        BgpQuery::new(vec![0], atoms)
    }

    #[test]
    fn shapes() {
        assert_eq!(classify(&q(&[(0, 1), (0, 2), (0, 3)])), Shape::Star);
        assert_eq!(classify(&q(&[(0, 1), (1, 2), (2, 3)])), Shape::Path);
        assert_eq!(classify(&q(&[(0, 1), (1, 2), (1, 3), (3, 4)])), Shape::Tree);
        assert_eq!(classify(&q(&[(0, 1), (1, 2), (2, 0)])), Shape::Cyclic);
        // Parallel edges are one join, not a cycle.
        assert_eq!(classify(&q(&[(0, 1), (0, 1)])), Shape::Star);
    }
}
