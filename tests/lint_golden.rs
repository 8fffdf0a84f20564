//! Golden lint snapshots: the corpus gate behind `cargo xtask lint`.
//!
//! Two snapshots pin the linter's behaviour:
//!
//! * `lint_corpus.snap` — the committed SESQL corpus (the paper's
//!   Ex. 4.1–4.6 workload templates against the SmartGround databank)
//!   must lint *clean*: a new rule that starts firing on real queries is
//!   a false-positive regression and fails the gate.
//! * `lint_fixtures.snap` — one deliberately-defective and one clean
//!   fixture per rule: a rule that silently stops firing (or fires on
//!   the clean twin) also fails the gate.
//!
//! To regenerate after an intentional rule change:
//!
//! ```text
//! CROSSE_UPDATE_SNAPSHOTS=1 cargo test --test lint_golden
//! cargo xtask lint   # regenerates, then diffs via git
//! ```

use std::fmt::Write as _;

use crosse::prelude::*;
use crosse::smartground::paper_examples;

fn session() -> Session {
    let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
    Session::new(&engine, "director").unwrap()
}

fn check(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.snap"));
    if std::env::var_os("CROSSE_UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}) — regenerate with \
             CROSSE_UPDATE_SNAPSHOTS=1 cargo test --test lint_golden",
            path.display()
        )
    });
    assert_eq!(
        got, &want,
        "lint output for {name} diverged from its committed snapshot; if \
         the rule change is intentional, regenerate with \
         CROSSE_UPDATE_SNAPSHOTS=1 cargo test --test lint_golden"
    );
}

fn render(diags: &[crosse::core::Diagnostic]) -> String {
    if diags.is_empty() {
        "(clean)\n".to_string()
    } else {
        diags.iter().fold(String::new(), |mut s, d| {
            let _ = writeln!(s, "{d}");
            s
        })
    }
}

/// The committed corpus — every workload template must stay lint-clean.
#[test]
fn corpus_lints_clean() {
    let s = session();
    let mut out = String::new();
    for q in paper_examples("LF00000") {
        let diags = s.lint(Lang::Sesql, &q.sesql).unwrap();
        let _ = writeln!(out, "== {} ==", q.name);
        out.push_str(&render(&diags));
        assert!(
            diags.is_empty(),
            "corpus query {} is no longer lint-clean: {diags:?}",
            q.name
        );
    }
    check("lint_corpus", &out);
}

/// One firing and one non-firing fixture per rule. The firing fixture's
/// diagnostics (codes, messages, spans) are pinned verbatim.
#[test]
fn rule_fixtures() {
    let s = session();
    let mut out = String::new();
    // (label, SESQL statement) pairs linted in the director's context.
    let sesql_fixtures: &[(&str, &str)] = &[
        ("L001 always-false literal", "SELECT name FROM landfill WHERE 1 = 2"),
        (
            "L001 contradictory equalities",
            "SELECT name FROM landfill WHERE city = 'Torino' AND city = 'Lyon'",
        ),
        ("L001 clean twin", "SELECT name FROM landfill WHERE city = 'Torino'"),
        ("L002 always-true literal", "SELECT name FROM landfill WHERE 1 = 1"),
        ("L002 self-comparison", "SELECT name FROM landfill WHERE city = city"),
        ("L002 clean twin", "SELECT name FROM landfill WHERE city <> name"),
        (
            "L003 implicit cross join",
            "SELECT name FROM landfill, elem_contained",
        ),
        (
            "L003 clean twin (equi-linked)",
            "SELECT name FROM landfill, elem_contained WHERE name = landfill_name",
        ),
        (
            "L004 string-numeric coercion",
            "SELECT name FROM landfill WHERE city = 3",
        ),
        ("L004 clean twin", "SELECT name FROM landfill WHERE city = 'Torino'"),
        (
            "L005 DISTINCT under GROUP BY",
            "SELECT DISTINCT city FROM landfill GROUP BY city",
        ),
        ("L005 clean twin", "SELECT city FROM landfill GROUP BY city"),
        (
            "E001 unreferenced condition tag",
            "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        ),
        (
            "E001 clean twin",
            "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
             ENRICH REPLACEVARIABLE(cond1, elem_name, oreAssemblage)",
        ),
        (
            "E003 unresolvable property",
            "SELECT elem_name FROM elem_contained \
             ENRICH SCHEMAEXTENSION(elem_name, noSuchProperty)",
        ),
        (
            "E003 clean twin (stored query)",
            "SELECT elem_name FROM elem_contained WHERE ${elem_name = X:c1} \
             ENRICH REPLACECONSTANT(c1, X, dangerQuery)",
        ),
    ];
    for (label, stmt) in sesql_fixtures {
        let _ = writeln!(out, "== {label} ==");
        out.push_str(&render(&s.lint(Lang::Sesql, stmt).unwrap()));
    }

    // L006 fires on ad-hoc SQL lint (prepare-time linting allows params).
    let _ = writeln!(out, "== L006 unbound params (ad-hoc SQL) ==");
    out.push_str(&render(
        &s.lint(Lang::Sql, "SELECT name FROM landfill WHERE city = $city").unwrap(),
    ));
    let _ = writeln!(out, "== L006 clean twin ==");
    out.push_str(&render(
        &s.lint(Lang::Sql, "SELECT name FROM landfill WHERE city = 'Torino'").unwrap(),
    ));

    // SPARQL rules in the session's context.
    let sparql_fixtures: &[(&str, &str)] = &[
        (
            "S001 bound-never-used",
            "SELECT ?s WHERE { ?s <urn:p> ?dead }",
        ),
        (
            "S001 clean twin (join variable)",
            "SELECT ?s WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }",
        ),
        (
            "S002 projected-never-bound",
            "SELECT ?s ?ghost WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }",
        ),
        ("S002 clean twin", "SELECT ?s ?o WHERE { ?s <urn:p> ?o }"),
        (
            "S003 always-false FILTER",
            "SELECT * WHERE { ?s <urn:p> ?o FILTER(1 > 2) }",
        ),
        (
            "S003 clean twin",
            "SELECT * WHERE { ?s <urn:p> ?o FILTER(?o > 2) }",
        ),
    ];
    for (label, sparql) in sparql_fixtures {
        let _ = writeln!(out, "== {label} ==");
        out.push_str(&render(&s.lint(Lang::Sparql, sparql).unwrap()));
    }

    check("lint_fixtures", &out);

    // Beyond the snapshot: the seeded always-false fixture must keep
    // producing an error-severity L001 — the gate's canary.
    let diags = s.lint(Lang::Sesql, "SELECT name FROM landfill WHERE 1 = 2").unwrap();
    assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["L001"]);
    assert_eq!(
        crosse::relational::Severity::Error,
        diags[0].severity,
        "the seeded always-false fixture must stay an error"
    );
}
