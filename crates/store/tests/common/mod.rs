//! Helpers shared by the store's differential test suites: term
//! shorthands and a naive JUCQ evaluator written over plain maps — no
//! engine code — that the engine's configurations are held to.

#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap};

use jucq_model::term::TermKind;
use jucq_model::{TermId, TripleId};
use jucq_store::{PatternTerm, Relation, StoreCq, StoreJucq, StorePattern, VarId};

/// One `(s, p, o)` triple of raw URI ids.
pub type Spo = (u32, u32, u32);

pub fn id(i: u32) -> TermId {
    TermId::new(TermKind::Uri, i)
}

pub fn c(i: u32) -> PatternTerm {
    PatternTerm::Const(id(i))
}

pub fn v(i: VarId) -> PatternTerm {
    PatternTerm::Var(i)
}

pub fn triples(data: &[Spo]) -> Vec<TripleId> {
    data.iter().map(|&(s, p, o)| TripleId::new(id(s), id(p), id(o))).collect()
}

pub fn sorted_rows(r: &Relation) -> Vec<Vec<TermId>> {
    let mut rows: Vec<Vec<TermId>> = r.rows().map(|row| row.to_vec()).collect();
    rows.sort();
    rows
}

/// Plain-map lookups over triples.
struct Triples<'d> {
    all: &'d [Spo],
    by_p: HashMap<u32, Vec<Spo>>,
    by_sp: HashMap<(u32, u32), Vec<Spo>>,
}

type Binding = HashMap<VarId, u32>;

fn value(term: PatternTerm, binding: &Binding) -> Option<u32> {
    match term {
        PatternTerm::Const(t) => Some(t.raw()),
        PatternTerm::Var(x) => binding.get(&x).copied(),
    }
}

impl<'d> Triples<'d> {
    fn new(all: &'d [Spo]) -> Self {
        let mut by_p: HashMap<u32, Vec<Spo>> = HashMap::new();
        let mut by_sp: HashMap<(u32, u32), Vec<Spo>> = HashMap::new();
        for &t in all {
            by_p.entry(t.1).or_default().push(t);
            by_sp.entry((t.0, t.1)).or_default().push(t);
        }
        Triples { all, by_p, by_sp }
    }

    /// Every extension of `binding` by a triple matching `pattern`.
    fn extend(&self, pattern: &StorePattern, binding: &Binding, out: &mut Vec<Binding>) {
        let (s, p) = (value(pattern.s, binding), value(pattern.p, binding));
        let candidates: &[Spo] = match (s, p) {
            (Some(s), Some(p)) => self.by_sp.get(&(s, p)).map_or(&[], Vec::as_slice),
            (None, Some(p)) => self.by_p.get(&p).map_or(&[], Vec::as_slice),
            _ => self.all,
        };
        'triples: for &(ts, tp, to) in candidates {
            let mut extended = binding.clone();
            for (term, got) in [(pattern.s, ts), (pattern.p, tp), (pattern.o, to)] {
                match value(term, &extended) {
                    Some(want) if want != got => continue 'triples,
                    Some(_) => {}
                    None => {
                        let PatternTerm::Var(x) = term else {
                            unreachable!("constants have values")
                        };
                        extended.insert(x, got);
                    }
                }
            }
            out.push(extended);
        }
    }

    /// The head rows of one conjunctive query.
    fn eval_cq(&self, cq: &StoreCq, out: &mut BTreeSet<Vec<u32>>) {
        let mut bindings = vec![Binding::new()];
        for pattern in &cq.patterns {
            let mut next = Vec::new();
            for b in &bindings {
                self.extend(pattern, b, &mut next);
            }
            bindings = next;
        }
        for b in &bindings {
            out.insert(cq.head.iter().map(|&t| value(t, b).expect("safe head")).collect());
        }
    }
}

/// The answers of `q` over `data` by definition: each fragment is the
/// set union of its members' head rows, the fragments are joined on
/// their shared head variables in the order they are declared, and the
/// result is projected on `q.head` under set semantics. Sorted.
pub fn naive_answers(data: &[Spo], q: &StoreJucq) -> Vec<Vec<TermId>> {
    let index = Triples::new(data);
    let mut acc: Vec<Binding> = vec![Binding::new()];
    for fragment in &q.fragments {
        let mut rows = BTreeSet::new();
        for cq in &fragment.cqs {
            index.eval_cq(cq, &mut rows);
        }
        // Every accumulated binding binds the same variables.
        let schema = &acc[0];
        let bound: Vec<usize> =
            (0..fragment.head.len()).filter(|&k| schema.contains_key(&fragment.head[k])).collect();
        let mut by_key: HashMap<Vec<u32>, Vec<&Vec<u32>>> = HashMap::new();
        for row in &rows {
            by_key.entry(bound.iter().map(|&k| row[k]).collect()).or_default().push(row);
        }
        let mut next = Vec::new();
        for b in &acc {
            let key: Vec<u32> = bound.iter().map(|&k| b[&fragment.head[k]]).collect();
            for row in by_key.get(&key).map_or(&[][..], Vec::as_slice) {
                let mut joined = b.clone();
                joined.extend(fragment.head.iter().copied().zip(row.iter().copied()));
                next.push(joined);
            }
        }
        acc = next;
        if acc.is_empty() {
            break;
        }
    }
    let answers: BTreeSet<Vec<TermId>> =
        acc.iter().map(|b| q.head.iter().map(|x| id(b[x])).collect()).collect();
    answers.into_iter().collect()
}
