//! # jucq-qa — differential correctness harness
//!
//! Seeded strategy-equivalence fuzzing for the `jucq` engine. The
//! paper's central claims are equivalences — saturation ≡ UCQ ≡ SCQ ≡
//! any cover-based JUCQ (Theorem 3.1) — which makes them directly
//! testable: generate a random RDFS schema, instance data, and a BGP
//! query from a seed ([`gen`]), answer it every way the engine knows on
//! every engine profile ([`oracle`]), and
//! demand bit-identical answer multisets. On a mismatch, shrink the
//! case to a 1-minimal reproducer ([`shrink`]) and print it as a
//! ready-to-paste regression test ([`report`]).
//!
//! Entry points: [`run_fuzz`] (the `jucq fuzz` subcommand and CI), and
//! [`check_case`] (regression tests over [`GenCase::from_spec`]).

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod report;
pub mod shrink;
mod spec;

pub use gen::{gen_case, AtomSpec, GenCase, QTerm, QuerySpec};
pub use oracle::{check_case, check_case_with, profiles_for, CaseStats};
pub use report::reproducer_test;
pub use shrink::shrink;

use jucq_store::EngineProfile;

/// One fuzzing failure: the seed, the oracle's complaint, and the
/// shrunk reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The per-case seed (base seed + case index).
    pub seed: u64,
    /// The oracle's mismatch description for the original case.
    pub message: String,
    /// The 1-minimal shrunk case.
    pub shrunk: GenCase,
    /// A ready-to-paste `#[test]` reproducing the failure.
    pub reproducer: String,
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Total strategy × profile answers compared.
    pub answers_checked: u64,
    /// Total valid covers enumerated and executed as fixed covers.
    pub covers_enumerated: u64,
    /// Total `RangeScan` / `RangeProbe` executions ([`CaseStats`]).
    pub range_scans: u64,
    /// Failures found (the run stops after three).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True iff every case passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `cases` differential cases starting at `seed` (case `i` uses
/// seed `seed + i`) against `profiles`. Failures are shrunk and
/// reported; the run aborts after three distinct failures. With
/// `verbose`, progress is printed every 50 cases.
pub fn run_fuzz(seed: u64, cases: usize, profiles: &[EngineProfile], verbose: bool) -> FuzzReport {
    let mut report = FuzzReport {
        cases: 0,
        answers_checked: 0,
        covers_enumerated: 0,
        range_scans: 0,
        failures: Vec::new(),
    };
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i as u64);
        let case = gen_case(case_seed);
        report.cases += 1;
        match check_case_with(&case, profiles) {
            Ok(stats) => {
                report.answers_checked += stats.answers_checked as u64;
                report.covers_enumerated += stats.covers_enumerated as u64;
                report.range_scans += stats.range_scans;
            }
            Err(message) => {
                eprintln!("jucq-qa: seed {case_seed} FAILED: {message}");
                eprintln!("jucq-qa: shrinking…");
                let shrunk = shrink(&case, profiles);
                let reproducer = reproducer_test(&shrunk, case_seed, &message);
                eprintln!("{reproducer}");
                report.failures.push(FuzzFailure { seed: case_seed, message, shrunk, reproducer });
                if report.failures.len() >= 3 {
                    eprintln!("jucq-qa: three failures collected, stopping early");
                    break;
                }
            }
        }
        if verbose && (i + 1) % 50 == 0 {
            eprintln!(
                "jucq-qa: {}/{cases} cases, {} answers compared, {} failures",
                i + 1,
                report.answers_checked,
                report.failures.len()
            );
        }
    }
    report
}
