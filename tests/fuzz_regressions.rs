//! Minimized reproducers for bugs the differential fuzzer surfaced (or
//! would have surfaced had the harness existed when they were written).
//! Each test is a shrunk case in the `jucq_qa` spec format; the oracle
//! re-runs the full strategy × profile matrix on it.

/// Zero-atom queries used to diverge: `Cover::singletons` accepts an
/// empty fragment family while `Cover::single_fragment` rejects it, so
/// SCQ-style strategies answered while UCQ-style ones errored. The
/// engine now short-circuits uniformly: no atoms, no answers.
#[test]
fn zero_atom_query_is_uniformly_empty() {
    let case = jucq_qa::GenCase::from_spec(&["i0 p0 i1"], &[], &[]);
    jucq_qa::check_case(&case).unwrap();
}

/// Disconnected (cartesian) bodies have no valid cover; GCov and ECov
/// used to panic on `Cover::singletons(..).unwrap()` instead of
/// reporting the `CoverError` the fixed-cover path reported.
#[test]
fn disconnected_body_reports_cover_error_everywhere() {
    let case = jucq_qa::GenCase::from_spec(
        &["i0 p0 i1", "i2 p1 i3"],
        &["?v0 p0 ?v1", "?v2 p1 ?v3"],
        &["?v0", "?v2"],
    );
    jucq_qa::check_case(&case).unwrap();
}

/// Querying vocabulary absent from schema and data must reformulate to
/// an empty (or trivially unsatisfiable) union and answer cleanly.
#[test]
fn absent_vocabulary_answers_empty() {
    let case = jucq_qa::GenCase::from_spec(
        &["C1 sc C0", "i0 a C1"],
        &["?v0 a GhostClass", "?v0 ghostProp ?v1"],
        &["?v0"],
    );
    jucq_qa::check_case(&case).unwrap();
}

/// A completely empty database: every strategy answers every query
/// shape with zero rows (saturation of nothing is nothing).
#[test]
fn empty_database_answers_cleanly() {
    let case = jucq_qa::GenCase::from_spec(&[], &["?v0 a C0", "?v0 p0 ?v1"], &["?v0"]);
    jucq_qa::check_case(&case).unwrap();
}

/// An instance-only graph with no schema at all (no closure): the
/// reformulations are identity-like and must still agree with SAT.
#[test]
fn schemaless_graph_agrees() {
    let case = jucq_qa::GenCase::from_spec(
        &["i0 p0 i1", "i1 p0 i2", "i0 a C0"],
        &["?v0 p0 ?v1", "?v1 p0 ?v2"],
        &["?v0", "?v2"],
    );
    jucq_qa::check_case(&case).unwrap();
}

/// Deep subclass/subproperty chains with domain+range interaction —
/// the reformulation fan-out stress shape, including a literal object.
#[test]
fn deep_hierarchy_with_domain_range() {
    let case = jucq_qa::GenCase::from_spec(
        &[
            "C2 sc C1",
            "C1 sc C0",
            "p1 sp p0",
            "p0 dom C1",
            "p0 rng C2",
            "i0 p1 i1",
            "i1 p1 i2",
            "i2 p0 \"v0\"",
            "i3 a C2",
        ],
        &["?v0 a C0", "?v0 p0 ?v1"],
        &["?v0", "?v1"],
    );
    jucq_qa::check_case(&case).unwrap();
}

/// Found by `jucq fuzz` (seed 126, shrunk): containment once silently
/// rebound a container variable already mapped to a variable of the
/// contained query instead of checking consistency, so a range-rule
/// instantiation was judged redundant and its answer row dropped (6
/// rows where SAT returned 7). It now guards the planner's
/// subsumption, which every UCQ, SCQ and cover plan runs.
#[test]
fn fuzz_seed_126() {
    let case = jucq_qa::GenCase::from_spec(
        &["p2 dom C1", "p2 rng C0", "i2 p2 i5", "i5 a C1"],
        &["?v0 a C1", "?v0 ?v1 ?v2"],
        &["?v1", "?v2"],
    );
    jucq_qa::check_case(&case).unwrap();
}

/// A variable in predicate position joins the two atoms; reformulation
/// must instantiate it consistently across every cover.
#[test]
fn variable_predicate_join() {
    let case = jucq_qa::GenCase::from_spec(
        &["p0 dom C0", "i0 p0 i1", "i0 a C1", "C1 sc C0"],
        &["?v0 ?v1 ?v2", "?v0 a C0"],
        &["?v0", "?v1"],
    );
    jucq_qa::check_case(&case).unwrap();
}
