//! Smoke test for the `crosse-cli` binary: drive it with a scripted
//! session over a pipe and check the printed results.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_script(script: &str) -> String {
    run_script_with_args(&[], script)
}

fn run_script_with_args(extra: &[&str], script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .args(["--landfills", "10", "--seed", "1"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crosse-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "cli exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn sql_and_sesql_statements_print_tables() {
    let out = run_script(
        "SELECT name FROM landfill ORDER BY name LIMIT 2;\n\
         SELECT elem_name FROM elem_contained LIMIT 1 \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel);\n",
    );
    assert!(out.contains("LF00000"), "{out}");
    assert!(out.contains("dangerLevel"), "{out}");
}

#[test]
fn multi_line_statement_and_error_reporting() {
    let out = run_script(
        "SELECT name\nFROM landfill\nLIMIT 1;\n\
         SELECT nope FROM landfill;\n",
    );
    assert!(out.contains("(1 rows)") || out.contains("| name"), "{out}");
    assert!(out.contains("error:"), "{out}");
}

#[test]
fn dot_commands_work_scripted() {
    let out = run_script(
        ".tables\n\
         .schema landfill\n\
         .user alice\n\
         .assert Hg isA Dangerous\n\
         .kb\n\
         .sparql ASK { <Hg> <isA> <Dangerous> }\n\
         .explain SELECT name FROM landfill ENRICH SCHEMAEXTENSION(name, p)\n\
         .quit\n",
    );
    assert!(out.contains("elem_contained"), "{out}");
    assert!(out.contains("tons"), "{out}");
    assert!(out.contains("asserted statement"), "{out}");
    assert!(out.contains("<Hg> <isA> <Dangerous>"), "{out}");
    assert!(out.contains("true"), "{out}");
    assert!(out.contains("SESQL plan"), "{out}");
}

#[test]
fn users_are_isolated() {
    // alice's annotation must not leak into the director's context.
    let out = run_script(
        ".user alice\n\
         .assert Zz dangerLevel 9\n\
         .user director\n\
         .sparql ASK { <Zz> <dangerLevel> ?d }\n",
    );
    assert!(out.contains("false"), "{out}");
}

#[test]
fn exec_binds_quoted_values_with_spaces() {
    // `\exec` arguments honour single quotes: a value containing spaces
    // binds as ONE parameter. The query compares the bound parameter to a
    // multi-word literal, so the count is 10 iff the value arrived intact
    // (the pre-fix tokenizer split it at whitespace and errored).
    let out = run_script(
        "\\prepare q SELECT COUNT(*) AS n FROM landfill WHERE $c = 'Basse di Stura';\n\
         \\exec q $c='Basse di Stura'\n\
         \\exec q $c='other'\n",
    );
    assert!(out.contains("prepared `q`"), "{out}");
    assert!(out.contains("| 10 |"), "space-containing value mangled:\n{out}");
    assert!(out.contains("| 0 "), "non-matching value should count 0:\n{out}");
    assert!(!out.contains("error:"), "{out}");
}

#[test]
fn exec_binds_values_containing_equals_and_dollar() {
    let out = run_script(
        "\\prepare eq SELECT COUNT(*) AS n FROM landfill WHERE $c = 'a=b c';\n\
         \\exec eq $c='a=b c'\n\
         \\prepare dl SELECT COUNT(*) AS n FROM landfill WHERE ? = '$lit x';\n\
         \\exec dl '$lit x'\n",
    );
    let hits = out.matches("| 10 |").count();
    assert_eq!(hits, 2, "= / $ values mangled:\n{out}");
    assert!(!out.contains("error:"), "{out}");
}

#[test]
fn exec_quoted_positional_and_escaped_quote() {
    // `''` escapes a quote inside a quoted value, for positional and named
    // bindings alike.
    let out = run_script(
        "\\prepare who SELECT COUNT(*) AS n FROM landfill WHERE ? = 'O''Brien jr';\n\
         \\exec who 'O''Brien jr'\n\
         \\exec who plain\n",
    );
    assert!(out.contains("| 10 |"), "escaped quote failed:\n{out}");
    assert!(out.contains("| 0 "), "bare positional failed:\n{out}");
    assert!(!out.contains("error:"), "{out}");
}

#[test]
fn exec_unterminated_quote_reports_error() {
    let out = run_script(
        "\\prepare q SELECT name FROM landfill WHERE name = $n;\n\
         \\exec q $n='unclosed\n",
    );
    assert!(out.contains("unterminated quoted string"), "{out}");
}

#[test]
fn quoted_numeric_binds_as_text_not_int() {
    // Quotes force string binding: '123' equals the string literal, a bare
    // 999 binds as Int and trips the typed comparison error instead.
    let out = run_script(
        "\\prepare q SELECT COUNT(*) AS n FROM landfill WHERE $c = '123';\n\
         \\exec q $c='123'\n\
         \\exec q $c=999\n",
    );
    assert!(out.contains("| 10 |"), "quoted numeric must stay a string:\n{out}");
    assert!(out.contains("cannot compare 999"), "{out}");
}

#[test]
fn explain_meta_command_prints_optimized_plan() {
    let out = run_script(
        "\\explain SELECT name FROM landfill WHERE city = 'X' LIMIT 2\n\
         \\prepare q SELECT COUNT(*) AS n FROM landfill;\n\
         \\explain q\n",
    );
    // Plain statement: the SESQL explain shape with the optimized tree.
    assert!(out.contains("SESQL plan"), "{out}");
    assert!(out.contains("SeqScan: landfill"), "{out}");
    // Prepared name resolves to its compiled text.
    assert!(out.contains("Aggregate"), "{out}");
    assert!(!out.contains("error:"), "{out}");
}

#[test]
fn explain_meta_command_shows_shared_spools_for_self_join() {
    let out = run_script(
        "\\explain SELECT e1.elem_name FROM elem_contained e1, elem_contained e2 \
         WHERE e1.elem_name = e2.elem_name AND e1.landfill_name <> e2.landfill_name\n",
    );
    // The self-join scans one table twice; CSE spools it.
    assert!(out.contains("Shared spool #0"), "{out}");
    assert!(out.contains("-- cse:"), "{out}");
}

#[test]
fn explain_flag_prints_plan_before_results() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .args(["--landfills", "10", "--seed", "1", "--explain"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crosse-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"SELECT name FROM landfill ORDER BY name LIMIT 2;\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Plan first (EXPLAIN shape), then the result table.
    let plan_at = stdout.find("relational plan:").expect("plan printed");
    let rows_at = stdout.find("(2 rows)").expect("results printed");
    assert!(plan_at < rows_at, "{stdout}");

    let help = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .arg("--help")
        .output()
        .expect("run --help");
    let help_text = String::from_utf8(help.stdout).unwrap();
    assert!(help_text.contains("--explain"), "{help_text}");
}

#[test]
fn timing_output_tags_shared_pairs_table_legs() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .args(["--landfills", "10", "--seed", "1", "--timing"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crosse-cli");
    let q = "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2 \
             FROM elem_contained AS e1, elem_contained AS e2 \
             WHERE e1.landfill_name <> e2.landfill_name AND \
             ${ e1.elem_name = e2.elem_name :cond1} \
             ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage);\n";
    let script = format!("{q}{q}");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // First execution recomputes the leg; the second is served from the
    // persistent pairs table and tagged `shared`.
    assert!(stdout.contains("-- leg") || stdout.contains("--   leg"), "{stdout}");
    assert!(stdout.contains(", shared]"), "{stdout}");
    let recomputed = stdout
        .lines()
        .filter(|l| l.contains("leg [") && !l.contains(", shared]") && !l.contains(", cached]"))
        .count();
    assert!(recomputed >= 1, "first leg should be recomputed:\n{stdout}");
}

#[test]
fn wal_stats_reports_in_memory_without_data_dir() {
    let out = run_script("\\wal-stats\n");
    assert!(out.contains("in-memory engine"), "{out}");
}

#[test]
fn data_dir_persists_sessions_and_checkpoint_truncates() {
    let dir = std::env::temp_dir().join(format!("crosse-cli-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    // Session 1: create durable state, checkpoint it, inspect the WAL.
    let out = run_script_with_args(
        &["--data-dir", dir_s, "--wal-sync", "every_n:8"],
        "CREATE TABLE smoke (x INT);\n\
         INSERT INTO smoke VALUES (1), (2);\n\
         \\checkpoint\n\
         \\wal-stats\n",
    );
    assert!(out.contains("checkpoint written at LSN"), "{out}");
    assert!(out.contains("sync policy:     every_n:8"), "{out}");
    assert!(out.contains("snapshot LSN:"), "{out}");

    // Session 2: the same directory recovers the table without re-seeding.
    let out = run_script_with_args(
        &["--data-dir", dir_s],
        "SELECT COUNT(*) AS n FROM smoke;\n\
         SELECT COUNT(*) AS lf FROM landfill;\n",
    );
    assert!(out.contains("| 2 |"), "smoke table lost across restart:\n{out}");
    assert!(out.contains("| 10 |"), "databank should not re-seed:\n{out}");

    // The help text documents the durability surface.
    let help = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .arg("--help")
        .output()
        .expect("run --help");
    let help_text = String::from_utf8(help.stdout).unwrap();
    assert!(help_text.contains("--data-dir"), "{help_text}");
    assert!(help_text.contains("--wal-sync"), "{help_text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_flag_accepted_and_reported_in_help() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .args(["--landfills", "10", "--seed", "1", "--threads", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crosse-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"SELECT COUNT(*) FROM elem_contained;\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(1 rows)"), "{stdout}");

    let help = std::process::Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .arg("--help")
        .output()
        .expect("run --help");
    let help_text = String::from_utf8(help.stdout).unwrap();
    assert!(help_text.contains("--threads"), "{help_text}");
    assert!(help_text.contains("worker threads"), "{help_text}");
}

#[test]
fn lint_meta_command_reports_findings() {
    let out = run_script(
        "\\lint SELECT name FROM landfill WHERE 1 = 2;\n\
         \\lint SELECT name FROM landfill LIMIT 1;\n",
    );
    assert!(out.contains("error[L001]"), "{out}");
    assert!(out.contains("(no lint findings)"), "{out}");
}

#[test]
fn lint_flag_prints_findings_but_still_executes() {
    let out = run_script_with_args(
        &["--lint"],
        "SELECT name FROM landfill WHERE 1 = 2 LIMIT 1;\n",
    );
    assert!(out.contains("-- lint: error[L001]"), "{out}");
    // Without --deny-warnings the statement still runs (empty result).
    assert!(out.contains("(0 rows)"), "{out}");
}

#[test]
fn deny_warnings_refuses_statement_and_exits_nonzero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .args(["--landfills", "10", "--seed", "1", "--deny-warnings"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crosse-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"SELECT name FROM landfill WHERE 1 = 2 LIMIT 1;\nSELECT name FROM landfill LIMIT 1;\n")
        .expect("write script");
    let out = child.wait_with_output().expect("wait");
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    assert!(!out.status.success(), "deny-warnings must exit non-zero: {stdout}");
    assert!(stdout.contains("refused under --deny-warnings"), "{stdout}");
    // The refused statement produced no result table...
    assert!(!stdout.contains("(0 rows)"), "{stdout}");
    // ...but the clean follow-up still ran.
    assert!(stdout.contains("LF0"), "{stdout}");
}

/// Spawn `--serve 127.0.0.1:0`, read the bound address off stdout, and
/// hand it (plus the server child, whose stdin keeps it alive) to `f`.
fn with_server(extra: &[&str], f: impl FnOnce(&str)) {
    use std::io::{BufRead, BufReader};
    let mut server = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .args(["--landfills", "10", "--seed", "1", "--serve", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server");
    let mut line = String::new();
    BufReader::new(server.stdout.as_mut().expect("stdout"))
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line.trim().rsplit(' ').next().expect("address").to_string();
    f(&addr);
    // Closing stdin asks the server to drain and stop.
    drop(server.stdin.take());
    let status = server.wait().expect("server wait");
    assert!(status.success(), "server exit: {status:?}");
}

#[test]
fn connect_mode_round_trips_queries_over_the_wire() {
    with_server(&[], |addr| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
            .args(["--connect", addr])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn client");
        child
            .stdin
            .as_mut()
            .expect("stdin")
            .write_all(
                b"SELECT name FROM landfill ORDER BY name LIMIT 2;\n\
                  SELECT elem_name FROM elem_contained WHERE landfill_name = 'LF00000' \
                  ENRICH SCHEMAEXTENSION(elem_name, dangerLevel);\n\
                  CREATE TABLE wire_t (a INT);\n\
                  INSERT INTO wire_t VALUES (1), (2);\n\
                  SELECT nope FROM landfill;\n\
                  .sparql SELECT ?s WHERE { ?s ?p ?o } LIMIT 1\n\
                  \\server-stats\n\
                  \\ping\n",
            )
            .expect("write script");
        let out = child.wait_with_output().expect("client wait");
        assert!(out.status.success(), "client exit: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("LF00000"), "{stdout}");
        assert!(stdout.contains("dangerLevel"), "{stdout}");
        assert!(stdout.contains("(2 rows)"), "{stdout}");
        assert!(stdout.contains("error:"), "{stdout}");
        assert!(stdout.contains("accepted_queries"), "{stdout}");
        assert!(stdout.contains("pong"), "{stdout}");
    });
}

/// The shell runs every command through one dispatcher and one printer
/// over either backend, so a script prints the same in process and over
/// the wire.
#[test]
fn local_and_remote_shells_agree() {
    let script = "SELECT name FROM landfill ORDER BY name LIMIT 2;\n\
                  SELECT elem_name FROM elem_contained WHERE landfill_name = 'LF00000' \
                  ENRICH SCHEMAEXTENSION(elem_name, dangerLevel);\n\
                  CREATE TABLE parity_t (a INT);\n\
                  INSERT INTO parity_t VALUES (1), (2);\n\
                  SELECT nope FROM landfill;\n\
                  .sparql SELECT ?s ?d WHERE { ?s <dangerLevel> ?d } ORDER BY ?s LIMIT 3\n\
                  .sparql ASK { ?s <dangerLevel> ?d }\n\
                  \\prepare q SELECT COUNT(*) AS n FROM landfill WHERE $c = 'Basse di Stura';\n\
                  \\exec q $c='Basse di Stura'\n\
                  \\explain SELECT name FROM landfill LIMIT 1\n\
                  \\lint SELECT name FROM landfill WHERE 1 = 2\n";
    let local = run_script(script);
    // The script exercises every part it names.
    for expected in ["LF00001", "dangerLevel", "(2 rows affected)", "error:", "| true |"] {
        assert!(local.contains(expected), "{expected}:\n{local}");
    }
    for expected in ["prepared `q`", "| 10 |", "SESQL plan", "error[L001]"] {
        assert!(local.contains(expected), "{expected}:\n{local}");
    }
    with_server(&[], |addr| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
            .args(["--connect", addr])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn client");
        child.stdin.as_mut().expect("stdin").write_all(script.as_bytes()).expect("write");
        let out = child.wait_with_output().expect("client wait");
        assert!(out.status.success(), "client exit: {:?}", out.status);
        assert_eq!(String::from_utf8(out.stdout).expect("utf8"), local);
    });
}

#[test]
fn connect_mode_explain_and_lint_run_remotely() {
    with_server(&[], |addr| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
            .args(["--connect", addr])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn client");
        child
            .stdin
            .as_mut()
            .expect("stdin")
            .write_all(
                b"\\explain SELECT name FROM landfill LIMIT 1\n\
                  \\lint SELECT name FROM landfill WHERE 1 = 2\n",
            )
            .expect("write script");
        let out = child.wait_with_output().expect("client wait");
        assert!(out.status.success(), "client exit: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.to_lowercase().contains("scan"), "{stdout}");
        assert!(stdout.contains("L001"), "{stdout}");
    });
}

#[test]
fn help_mentions_server_modes() {
    let help = Command::new(env!("CARGO_BIN_EXE_crosse-cli"))
        .arg("--help")
        .output()
        .expect("run --help");
    let text = String::from_utf8(help.stdout).unwrap();
    assert!(text.contains("--serve"), "{text}");
    assert!(text.contains("--connect"), "{text}");
    assert!(text.contains("crates/server/DESIGN.md"), "{text}");
}

#[test]
fn prepare_counts_parameters_not_literals() {
    // The statement cache lifts the comparison literal into a hidden
    // slot; `\prepare` still counts only what `\exec` binds.
    let out = run_script(
        "\\prepare lit SELECT name FROM landfill WHERE name = 'LF00000';\n\
         \\prepare mixed SELECT name FROM landfill WHERE name = 'LF00000' AND city = $c;\n\
         \\exec lit\n",
    );
    assert!(out.contains("prepared `lit` (0 parameter(s))"), "{out}");
    assert!(out.contains("prepared `mixed` (1 parameter(s))"), "{out}");
    assert!(out.contains("LF00000"), "{out}");
    assert!(!out.contains("error:"), "{out}");
}
