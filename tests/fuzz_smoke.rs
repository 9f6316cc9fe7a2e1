//! Tier-1 smoke pass of the differential fuzzer: 100 seeded cases
//! against the full engine-profile trio must produce zero mismatches.
//! CI runs the wider sweep (`jucq fuzz`, 500 cases per profile); this
//! keeps every `cargo test` honest.

use jucq_qa::run_fuzz;
use jucq_store::EngineProfile;

#[test]
fn one_hundred_seeded_cases_agree_across_strategies() {
    let report = run_fuzz(1, 100, &EngineProfile::rdbms_trio(), false);
    assert_eq!(report.cases, 100);
    assert!(
        report.ok(),
        "differential mismatches:\n{}",
        report
            .failures
            .iter()
            .map(|f| format!("seed {}: {}\n{}", f.seed, f.message, f.reproducer))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Plain ids still put enough subtrees in collapsible runs that the
    // RangeScan / RangeProbe kernels stay on the fuzzed path.
    assert!(report.range_scans > 0, "no generated case ran a range-collapsed plan");
}
