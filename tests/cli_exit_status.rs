//! `jucq`'s one-shot subcommands report a failed query in their exit
//! status, so scripts comparing their output can tell "no rows" from
//! "no answer"; the repl reports it and carries on.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const GOOD: &str = "SELECT ?x WHERE { ?x <http://e/p> ?y }";
const BAD: &str = "SELECT nonsense";

/// A one-triple Turtle file private to the calling test.
fn data(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("jucq-cli-{}-{test}.ttl", std::process::id()));
    std::fs::write(&path, "<http://e/a> <http://e/p> <http://e/b> .\n").unwrap();
    path
}

fn jucq_query(data: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jucq"))
        .arg("query")
        .arg(data)
        .args(args)
        .output()
        .expect("the jucq binary runs")
}

#[test]
fn an_answered_query_exits_zero() {
    let data = data("ok");
    let out = jucq_query(&data, &[GOOD]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "<http://e/a>");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn an_unparsable_query_exits_one() {
    let data = data("bad");
    for flags in [&[][..], &["--explain-analyze"], &["--compare"]] {
        let mut args = vec![BAD];
        args.extend_from_slice(flags);
        let out = jucq_query(&data, &args);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: an unparsable query must fail");
        assert!(out.stdout.is_empty(), "{flags:?}: no rows for a query that never ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("parse error"), "{flags:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&data);
}

#[test]
fn the_repl_reports_a_failed_query_and_carries_on() {
    let data = data("repl");
    let mut repl = Command::new(env!("CARGO_BIN_EXE_jucq"))
        .arg("repl")
        .arg(&data)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the jucq binary runs");
    let script = format!("{BAD}\n{GOOD}\n:quit\n");
    repl.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = repl.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "<http://e/a>");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn a_reader_that_leaves_after_one_line_is_not_a_failure() {
    // 1000 printed rows of ~200 bytes: more than a pipe holds, so the
    // writer is still writing when the reader goes away.
    let path = std::env::temp_dir().join(format!("jucq-cli-{}-pipe.ttl", std::process::id()));
    let long = "x".repeat(60);
    let triples: String = (0..1200)
        .map(|i| format!("<http://e/{long}/s{i}> <http://e/{long}/p> <http://e/{long}/o{i}> .\n"))
        .collect();
    std::fs::write(&path, triples).unwrap();

    let mut jucq = Command::new(env!("CARGO_BIN_EXE_jucq"))
        .arg("query")
        .arg(&path)
        .arg("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the jucq binary runs");
    let mut stdout = std::io::BufReader::new(jucq.stdout.take().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut stdout, &mut line).unwrap();
    assert_eq!(line.split('\t').count(), 3, "{line:?}");
    drop(stdout);

    let out = jucq.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("1200 rows"), "the summary still goes to stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}
