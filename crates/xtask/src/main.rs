//! Workspace automation tasks (`cargo xtask <task>` / `cargo bench-smoke`).
//!
//! * `bench-smoke` — run every Criterion bench in `--test` mode (each
//!   benchmark body executes once, no measurement), then the clippy gate.
//!   The cheap CI gate for "the benches still run and the workspace is
//!   lint-clean".
//! * `bench-baseline` — regenerate `BENCH_e3.json` from the experiments
//!   binary (release build) so future PRs have a perf trajectory to
//!   compare against. Includes the e11 concurrency record (QPS + latency
//!   percentiles at 1 vs 4 worker threads) and the e14 over-the-wire
//!   record (closed-loop TCP clients + overload shed rate).
//! * `bench-diff` — re-run the E3 experiments (plus the E12 ex4.6
//!   REPLACEVARIABLE record) and compare each `sesql_median_s` against
//!   the committed `BENCH_e3.json`, printing per-experiment deltas.
//!   Exits non-zero when any experiment regresses beyond the threshold
//!   (default 25%; `--threshold 0.4` or `CROSSE_BENCH_THRESHOLD=0.4` to
//!   tune).
//! * `explain-snapshots` — regenerate the golden EXPLAIN snapshots
//!   (`tests/snapshots/*.snap`) and `git diff --exit-code` them against
//!   the committed ones.
//! * `clippy` — `cargo clippy --workspace --all-targets -- -D warnings`.
//! * `rustdoc` — `cargo doc --no-deps --workspace` with
//!   `RUSTDOCFLAGS=-D warnings`: broken and private intra-doc links fail.
//! * `lint` — regenerate the corpus lint snapshots (`lint_golden`) and
//!   fail on drift against the committed ones.
//! * `check` — the aggregate gate: clippy + rustdoc + srclint + lint +
//!   explain-snapshots + the full test suite + every example binary, with
//!   a per-gate recap.
//! * `srclint` — the in-process Rust source linter (R001–R006: lock
//!   discipline, panic discipline, determinism; see `crosse-lint`):
//!   lint the workspace, then regenerate and drift-check the rule
//!   fixtures' golden snapshot.
//! * `loc` — count the Rust lines under `crates/` and `src/` that are
//!   not test code (no `tests/` files, no `#[cfg(test)]`/`#[test]`
//!   items, as srclint sees them), per crate and in total: the size
//!   figure ROADMAP aim 2 asks every PR to report.
//! * `stress` — run the concurrency test suite (release) with elevated
//!   iteration counts (`CROSSE_STRESS_ITERS=10`) under worker-thread
//!   budgets {1, 4, 8} (`CROSSE_EXEC_THREADS`): the snapshot-isolation
//!   and morsel-parallelism invariants must hold at every budget. A
//!   final debug-build pass with `CROSSE_LOCK_TRACK=1` gates the
//!   lock-acquisition-order graph (no inversions, no lock held across
//!   fsync).
//! * `crash` — fault-injection at the process level: spawn the CLI's
//!   write-heavy crash workload against a scratch `--data-dir`, SIGKILL
//!   it mid-batch, reopen and verify that every acknowledged batch
//!   survived intact in both substrates (twice, so the second kill lands
//!   on already-recovered state).
//! * `chaos` — network fault injection against a spawned
//!   `crosse-cli --serve` (debug build, `CROSSE_LOCK_TRACK=1`): malformed
//!   / truncated / oversized / slowloris frames and connections killed
//!   mid-query, all while concurrent typed clients keep querying; then a
//!   `kill -9` of the server mid-write-load with WAL recovery verified
//!   over the wire. `--quick` bounds the iteration counts for the
//!   `check` gate.

#![forbid(unsafe_code)]

use std::process::Command;

fn run(desc: &str, cmd: &mut Command) {
    println!("xtask: {desc}: {cmd:?}");
    let status = cmd.status().unwrap_or_else(|e| {
        eprintln!("xtask: failed to spawn {cmd:?}: {e}");
        std::process::exit(1);
    });
    if !status.success() {
        eprintln!("xtask: `{desc}` failed ({status})");
        std::process::exit(status.code().unwrap_or(1));
    }
}

fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
}

fn clippy() {
    run(
        "clippy gate on the whole workspace",
        cargo().args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ]),
    );
    println!("xtask: clippy OK");
}

/// Rustdoc with warnings as errors: an intra-doc link to a private or
/// missing item fails the gate.
fn rustdoc() {
    run(
        "rustdoc gate on the whole workspace",
        cargo()
            .args(["doc", "--no-deps", "--workspace", "--quiet"])
            .env("RUSTDOCFLAGS", "-D warnings"),
    );
    println!("xtask: rustdoc OK");
}

fn bench_smoke() {
    run(
        "bench smoke (all benches, --test mode)",
        cargo().args(["bench", "-p", "crosse-bench", "--benches", "--", "--test"]),
    );
    clippy();
    println!("xtask: bench-smoke OK");
}

fn bench_baseline() {
    run(
        "regenerate BENCH_e3.json (e3 + e11 concurrency + e12 enrichment + e13 durability \
         + e14 server)",
        cargo().args([
            "run",
            "--release",
            "-p",
            "crosse-bench",
            "--bin",
            "experiments",
            "--",
            "e3",
            "e11",
            "e12",
            "e13",
            "e14",
            "--json",
            "BENCH_e3.json",
        ]),
    );
    println!("xtask: baseline written to BENCH_e3.json");
}

/// Extract the e3 `(name, sesql_median_s)` pairs from a BENCH_e3.json.
/// Hand-rolled (the workspace has no serde): scans the flat, generated
/// schema `{"name": "...", "sesql_median_s": <f64>, ...}` line by line.
fn parse_e3_medians(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else { continue };
        let Some(rest) = rest.split_once("\"sesql_median_s\": ").map(|(_, r)| r) else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

/// Extract the e12 `(scale label, sesql_median_s)` pairs from a
/// BENCH_e3.json (flat generated schema, same hand-rolled parsing as e3).
fn parse_e12_medians(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"scale\": ") else {
            continue;
        };
        let Some((scale, rest)) = rest.split_once(',') else { continue };
        let Some(rest) = rest.split_once("\"sesql_median_s\": ").map(|(_, r)| r) else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((format!("e12/ex4.6 scale {}", scale.trim()), v));
        }
    }
    out
}

/// Extract the e13 `(mode, batches_per_s)` pairs from a BENCH_e3.json
/// (flat generated schema, same hand-rolled parsing as e3/e12).
fn parse_e13_qps(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"mode\": \"") else {
            continue;
        };
        let Some((mode, rest)) = rest.split_once('"') else { continue };
        let Some(rest) = rest.split_once("\"batches_per_s\": ").map(|(_, r)| r) else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((mode.to_string(), v));
        }
    }
    out
}

/// Extract the e14 `(clients, qps)` pairs from a BENCH_e3.json (flat
/// generated schema, same hand-rolled parsing as e3/e12/e13). Only the
/// closed-loop runs match — the overload record's object is nested after
/// `"overload": ` and so never starts a trimmed line with `{"clients": `.
fn parse_e14_qps(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"clients\": ") else {
            continue;
        };
        let Some((clients, rest)) = rest.split_once(',') else { continue };
        let Some(rest) = rest.split_once("\"qps\": ").map(|(_, r)| r) else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((format!("e14/server {} client(s)", clients.trim()), v));
        }
    }
    out
}

fn bench_diff(args: &[String]) {
    let threshold: f64 = args
        .iter()
        .position(|a| a == "--threshold")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("CROSSE_BENCH_THRESHOLD").ok())
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("xtask: invalid threshold `{s}` (want a fraction, e.g. 0.25)");
                std::process::exit(2);
            })
        })
        .unwrap_or(0.25);

    let committed = std::fs::read_to_string("BENCH_e3.json").unwrap_or_else(|e| {
        eprintln!("xtask: cannot read committed BENCH_e3.json: {e}");
        std::process::exit(1);
    });
    let mut baseline = parse_e3_medians(&committed);
    if baseline.is_empty() {
        eprintln!("xtask: no e3 records in the committed BENCH_e3.json");
        std::process::exit(1);
    }
    // e12 (the ex4.6 REPLACEVARIABLE scaling record) rides along when the
    // committed baseline has it.
    let baseline_e12 = parse_e12_medians(&committed);
    baseline.extend(baseline_e12.iter().cloned());

    let fresh_path = "target/bench-diff-e3.json";
    run(
        "re-run e3 + e12 + e13 + e14 experiments",
        cargo().args([
            "run",
            "--release",
            "-p",
            "crosse-bench",
            "--bin",
            "experiments",
            "--",
            "e3",
            "e12",
            "e13",
            "e14",
            "--json",
            fresh_path,
        ]),
    );
    let fresh_json = std::fs::read_to_string(fresh_path).unwrap_or_else(|e| {
        eprintln!("xtask: experiments run produced no {fresh_path}: {e}");
        std::process::exit(1);
    });
    let mut fresh = parse_e3_medians(&fresh_json);
    fresh.extend(parse_e12_medians(&fresh_json));

    println!("\nbench-diff vs committed BENCH_e3.json (threshold {:.0}%)", threshold * 100.0);
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "experiment", "committed", "fresh", "delta"
    );
    let mut regressions = Vec::new();
    for (name, old) in &baseline {
        let Some((_, new)) = fresh.iter().find(|(n, _)| n == name) else {
            println!("{name:<28} {:>14.6} {:>14} {:>9}", old, "MISSING", "-");
            regressions.push(format!("{name}: missing from fresh run"));
            continue;
        };
        let delta = new / old - 1.0;
        let marker = if delta > threshold { "  << REGRESSION" } else { "" };
        println!(
            "{:<28} {:>12.2}µs {:>12.2}µs {:>+8.1}%{}",
            name,
            old * 1e6,
            new * 1e6,
            delta * 100.0,
            marker
        );
        if delta > threshold {
            regressions.push(format!("{name}: {:+.1}%", delta * 100.0));
        }
    }
    for (name, _) in &fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("{name:<28} (new experiment, no committed baseline)");
        }
    }
    // e13 durability guard: group-commit (`every_n:256`) must stay within
    // 10% write throughput of the WAL-off baseline, measured fresh. A
    // slack of half the time threshold absorbs fsync jitter.
    let fresh_e13 = parse_e13_qps(&fresh_json);
    let off = fresh_e13.iter().find(|(m, _)| m == "wal-off");
    let group = fresh_e13.iter().find(|(m, _)| m == "every_n:256");
    if let (Some((_, off)), Some((_, group))) = (off, group) {
        let cost = 1.0 - group / off;
        let budget = 0.10 + threshold / 2.0;
        let marker = if cost > budget { "  << REGRESSION" } else { "" };
        println!(
            "\ne13 durability: wal-off {off:.0} batches/s, every_n:256 {group:.0} batches/s \
             — cost {:.1}% (budget {:.0}%){marker}",
            cost * 100.0,
            budget * 100.0,
        );
        if cost > budget {
            regressions.push(format!(
                "e13 durability: every_n:256 costs {:.1}% throughput (> {:.0}%)",
                cost * 100.0,
                budget * 100.0
            ));
        }
    }
    // e14 over-the-wire QPS guard: fresh closed-loop throughput must stay
    // within budget of the committed record at every client count.
    // Loopback scheduling is noisier than single-thread medians, so the
    // budget gets an extra 15 points of slack on top of the threshold.
    let baseline_e14 = parse_e14_qps(&committed);
    let fresh_e14 = parse_e14_qps(&fresh_json);
    if !baseline_e14.is_empty() && !fresh_e14.is_empty() {
        let budget = threshold + 0.15;
        println!();
        for (name, old) in &baseline_e14 {
            let Some((_, new)) = fresh_e14.iter().find(|(n, _)| n == name) else {
                println!("{name:<28} {old:>12.1}qps {:>14} {:>9}", "MISSING", "-");
                regressions.push(format!("{name}: missing from fresh run"));
                continue;
            };
            let loss = 1.0 - new / old;
            let marker = if loss > budget { "  << REGRESSION" } else { "" };
            println!(
                "{:<28} {:>11.1}qps {:>11.1}qps {:>+8.1}%{}",
                name,
                old,
                new,
                (new / old - 1.0) * 100.0,
                marker
            );
            if loss > budget {
                regressions.push(format!(
                    "{name}: {:.1}% QPS loss (> {:.0}%)",
                    loss * 100.0,
                    budget * 100.0
                ));
            }
        }
    }
    if regressions.is_empty() {
        println!("\nxtask: bench-diff OK (no experiment slower than {:.0}%)", threshold * 100.0);
    } else {
        eprintln!("\nxtask: bench-diff FAILED — {} regression(s):", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}

/// Regenerate the golden EXPLAIN snapshots (tests/snapshots/*.snap) and
/// fail if they differ from the committed ones — the cheap CI gate for
/// "the optimizer still produces the plans the snapshots promise". After
/// an intentional plan change, run this once and commit the updated
/// snapshots it leaves behind.
fn explain_snapshots() {
    run(
        "regenerate EXPLAIN snapshots",
        cargo()
            .args(["test", "--test", "explain_golden", "--quiet"])
            .env("CROSSE_UPDATE_SNAPSHOTS", "1"),
    );
    // `git status --porcelain` covers both modified *and* untracked
    // snapshot files (`git diff --exit-code` alone would silently pass a
    // brand-new .snap that was never committed).
    let status = Command::new("git")
        .args(["status", "--porcelain", "--", "tests/snapshots"])
        .output()
        .unwrap_or_else(|e| {
            eprintln!("xtask: failed to run git status: {e}");
            std::process::exit(1);
        });
    let dirty = String::from_utf8_lossy(&status.stdout);
    if !dirty.trim().is_empty() {
        run(
            "diff regenerated snapshots against the committed ones",
            Command::new("git").args(["diff", "--", "tests/snapshots"]),
        );
        eprintln!(
            "xtask: explain-snapshots FAILED — snapshots differ from (or are \
             missing in) the committed set:\n{dirty}\
             commit the regenerated files if the plan change is intentional"
        );
        std::process::exit(1);
    }
    println!("xtask: explain-snapshots OK (snapshots match the committed plans)");
}

/// Regenerate the golden lint snapshots (tests/snapshots/lint_*.snap) by
/// running the lint corpus test with `CROSSE_UPDATE_SNAPSHOTS=1`, then
/// fail if they differ from the committed ones — the corpus gate for "the
/// linter still says exactly what the snapshots promise" (no new false
/// positives on the clean corpus, no silently dropped findings on the
/// seeded-defect fixtures).
fn lint_gate() {
    run(
        "regenerate lint snapshots",
        cargo()
            .args(["test", "--test", "lint_golden", "--quiet"])
            .env("CROSSE_UPDATE_SNAPSHOTS", "1"),
    );
    let status = Command::new("git")
        .args(["status", "--porcelain", "--", "tests/snapshots"])
        .output()
        .unwrap_or_else(|e| {
            eprintln!("xtask: failed to run git status: {e}");
            std::process::exit(1);
        });
    let dirty = String::from_utf8_lossy(&status.stdout);
    if !dirty.trim().is_empty() {
        run(
            "diff regenerated lint snapshots against the committed ones",
            Command::new("git").args(["diff", "--", "tests/snapshots"]),
        );
        eprintln!(
            "xtask: lint FAILED — lint output differs from (or is missing in) \
             the committed snapshots:\n{dirty}\
             commit the regenerated files if the lint change is intentional"
        );
        std::process::exit(1);
    }
    println!("xtask: lint OK (corpus lint output matches the committed snapshots)");
}

/// Lint the workspace's own Rust sources with the dependency-free
/// srclint engine (rules R001–R006: no raw `std::sync` locks outside the
/// compat shim, no `.unwrap()`/`panic!` in library code, labeled lock
/// construction, `#![forbid(unsafe_code)]` crate roots, no wall-clock in
/// the planner). Runs in-process, then regenerates the srclint golden
/// snapshot and fails on drift from the committed one.
fn srclint() {
    let root = std::path::Path::new(".");
    let findings = crosse_lint::srclint::lint_workspace(root).unwrap_or_else(|e| {
        eprintln!("xtask: srclint walk failed: {e}");
        std::process::exit(1);
    });
    if !findings.is_empty() {
        print!("{}", crosse_lint::srclint::render_findings(&findings));
    }
    if crosse_lint::srclint::has_errors(&findings) {
        eprintln!("xtask: srclint FAILED — fix the findings above or add a justified `// srclint: allow(RXXX): …`");
        std::process::exit(1);
    }
    // Fixture corpus gate: regenerate tests/snapshots/srclint.snap and
    // diff against the committed one, same pattern as the lint gate.
    run(
        "regenerate srclint snapshots",
        cargo()
            .args(["test", "--test", "srclint_golden", "--quiet"])
            .env("CROSSE_UPDATE_SNAPSHOTS", "1"),
    );
    let status = Command::new("git")
        .args(["status", "--porcelain", "--", "tests/snapshots/srclint.snap"])
        .output()
        .unwrap_or_else(|e| {
            eprintln!("xtask: failed to run git status: {e}");
            std::process::exit(1);
        });
    let dirty = String::from_utf8_lossy(&status.stdout);
    if !dirty.trim().is_empty() {
        run(
            "diff regenerated srclint snapshot against the committed one",
            Command::new("git").args(["diff", "--", "tests/snapshots/srclint.snap"]),
        );
        eprintln!(
            "xtask: srclint FAILED — fixture output differs from (or is missing \
             in) the committed snapshot:\n{dirty}\
             commit the regenerated file if the rule change is intentional"
        );
        std::process::exit(1);
    }
    println!("xtask: srclint OK (workspace clean, fixture snapshot matches)");
}

/// Non-test Rust lines under `crates/` and `src/`, per crate and in total,
/// then the five largest files by the same count: files srclint classes
/// as test code are skipped whole, test-only items in the others are left
/// out (`srclint::non_test_lines`).
fn loc() {
    use crosse_lint::srclint::{classify, non_test_lines, workspace_rs_files, FileClass};
    let fail = |what: &str, e: std::io::Error| -> ! {
        eprintln!("xtask: loc: {what}: {e}");
        std::process::exit(1);
    };
    let files = workspace_rs_files(std::path::Path::new("."))
        .unwrap_or_else(|e| fail("walking the workspace", e));
    let mut per_crate: std::collections::BTreeMap<String, usize> = Default::default();
    let mut per_file: Vec<(usize, String)> = Vec::new();
    for rel in files {
        let unit = match rel.split('/').collect::<Vec<_>>()[..] {
            ["crates", "compat", name, ..] => format!("crates/compat/{name}"),
            ["crates", name, ..] => format!("crates/{name}"),
            ["src", ..] => "src".to_string(),
            _ => continue,
        };
        if classify(&rel) == FileClass::TestCode {
            continue;
        }
        let source = std::fs::read_to_string(&rel).unwrap_or_else(|e| fail(&rel, e));
        let lines = non_test_lines(&source);
        *per_crate.entry(unit).or_default() += lines;
        per_file.push((lines, rel));
    }
    for (unit, lines) in &per_crate {
        println!("{lines:>7}  {unit}");
    }
    println!("{:>7}  total non-test Rust lines", per_crate.values().sum::<usize>());
    per_file.sort_by(|a, b| b.cmp(a));
    println!("largest files:");
    for (lines, rel) in per_file.iter().take(5) {
        println!("{lines:>7}  {rel}");
    }
}

/// The benchmark package sits outside the workspace, so no other gate
/// compiles it: build and test it against the engine's current API, then
/// run all four workloads at smoke size, which checks every statement
/// against its golden digest and the unoptimized, uncached reference.
fn crossebench() {
    let manifest = ["--offline", "--quiet", "--manifest-path", "crossebench/Cargo.toml"];
    run("crossebench tests", cargo().arg("test").args(manifest));
    run(
        "crossebench --smoke",
        cargo().args(["run", "--release"]).args(manifest).args(["--", "--smoke"]),
    );
    println!("xtask: crossebench OK");
}

/// Run every `examples/*.rs` binary (debug build, output discarded): the
/// examples assert what they demonstrate, so a non-zero exit fails the
/// gate.
fn examples() {
    let mut names: Vec<String> = std::fs::read_dir("examples")
        .unwrap_or_else(|e| {
            eprintln!("xtask: cannot list examples/: {e}");
            std::process::exit(1);
        })
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let stem = path.file_stem()?.to_str()?.to_string();
            (path.extension()? == "rs").then_some(stem)
        })
        .collect();
    names.sort();
    for name in &names {
        run(
            &format!("example {name}"),
            cargo()
                .args(["run", "--quiet", "--example", name])
                .stdout(std::process::Stdio::null()),
        );
    }
    println!("xtask: examples OK ({} run)", names.len());
}

/// The aggregate static-analysis + test gate: clippy (warnings are
/// errors), srclint on our own sources, the corpus lint gate, the
/// EXPLAIN plan snapshots, the full test suite, the examples, chaos quick
/// mode and the benchmark package. One command ≈ "is
/// this tree healthy". Each sub-gate prints its own one-line verdict;
/// the trailing block recaps them.
fn check() {
    clippy();
    rustdoc();
    srclint();
    lint_gate();
    explain_snapshots();
    run("cargo test --workspace", cargo().args(["test", "--workspace", "--quiet"]));
    examples();
    chaos(&["--quick".to_string()]);
    crossebench();
    println!("xtask: check OK");
    for gate in [
        "clippy            OK (workspace, -D warnings)",
        "rustdoc           OK (cargo doc --no-deps --workspace, -D warnings)",
        "srclint           OK (R001-R006 on our own sources + fixture snapshot)",
        "lint              OK (query-corpus snapshots match)",
        "explain-snapshots OK (plan snapshots match)",
        "tests             OK (cargo test --workspace)",
        "examples          OK (every examples/*.rs binary exits 0)",
        "chaos             OK (--quick: frame abuse + kill -9 recovery, lock-tracked)",
        "crossebench       OK (harness tests + --smoke: golden and differential digests)",
    ] {
        println!("  {gate}");
    }
}

fn stress() {
    // Elevated iterations; one pass per worker-thread budget. Release
    // build: the point is to shake out races, not to wait on debug code.
    for threads in ["1", "4", "8"] {
        run(
            &format!("concurrency suite, {threads} worker thread(s), 10x iterations"),
            cargo()
                .args(["test", "--release", "--test", "concurrency", "--", "--nocapture"])
                .env("CROSSE_STRESS_ITERS", "10")
                .env("CROSSE_EXEC_THREADS", threads),
        );
    }
    // Lock-order regression pass: one debug-build round with the
    // parking_lot shim's acquisition-order tracker live. The suite's
    // lock-order gate test asserts the run recorded no inversion and no
    // lock held across an fsync (tracking compiles out of the release
    // passes above, so only this pass can see them).
    run(
        "lock-order gate (debug build, CROSSE_LOCK_TRACK=1, 4 worker threads)",
        cargo()
            .args(["test", "--test", "concurrency", "--", "--nocapture"])
            .env("CROSSE_LOCK_TRACK", "1")
            .env("CROSSE_EXEC_THREADS", "4"),
    );
    println!("xtask: stress OK (worker threads 1/4/8 + lock-order gate)");
}

/// Crash-recovery harness: spawn the CLI in `--crash-workload` mode
/// against a scratch data directory, read acknowledged batch numbers off
/// its stdout, SIGKILL it mid-batch, then reopen the directory with
/// `--verify-crash <last ack>` — no acknowledged batch may be lost and no
/// partial batch may surface. Two rounds: the second kills a process that
/// itself recovered from the first crash (snapshot + tail + log
/// consolidation all get exercised).
fn crash() {
    use std::io::BufRead;
    run(
        "build crosse-cli (release)",
        cargo().args(["build", "--release", "--bin", "crosse-cli"]),
    );
    let bin = "target/release/crosse-cli";
    let dir = std::env::temp_dir().join(format!("crosse-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().to_string();
    for round in 1..=2 {
        let mut child = Command::new(bin)
            .args(["--landfills", "5", "--data-dir", &dir_arg, "--crash-workload"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("xtask: failed to spawn the crash workload: {e}");
                std::process::exit(1);
            });
        let stdout = child.stdout.take().expect("piped stdout");
        let mut last_ack: Option<u64> = None;
        let mut acked = 0u32;
        for line in std::io::BufReader::new(stdout).lines() {
            let line = line.unwrap_or_default();
            if let Some(n) = line.strip_prefix("ack ").and_then(|s| s.parse::<u64>().ok())
            {
                last_ack = Some(n);
                acked += 1;
                // Enough batches this round to pass the workload's
                // mid-run checkpoint; the child keeps writing while we
                // stop reading, so the kill lands mid-batch.
                if acked >= 8 {
                    break;
                }
            }
        }
        let _ = child.kill(); // SIGKILL — no destructors, no flush
        let _ = child.wait();
        let last_ack = last_ack.unwrap_or_else(|| {
            eprintln!("xtask: crash workload produced no acks (round {round})");
            std::process::exit(1);
        });
        run(
            &format!("verify recovered state (round {round}, last ack {last_ack})"),
            Command::new(bin).args([
                "--landfills",
                "5",
                "--data-dir",
                &dir_arg,
                "--verify-crash",
                &last_ack.to_string(),
            ]),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("xtask: crash OK (2 kill -9 rounds, no acked batch lost, no torn batch)");
}

// ---- chaos: network-server fault injection ----------------------------------

/// A spawned `crosse-cli --serve` process plus its bound address.
struct ServerProc {
    child: std::process::Child,
    addr: String,
}

/// Spawn the CLI in `--serve` mode (debug build, `CROSSE_LOCK_TRACK=1` so
/// the run doubles as a lock-discipline gate) and read the bound address
/// off its first stdout line.
fn spawn_server(bin: &str, extra: &[&str]) -> ServerProc {
    use std::io::BufRead;
    let mut child = Command::new(bin)
        .args(["--landfills", "5", "--serve", "127.0.0.1:0"])
        .args(extra)
        .env("CROSSE_LOCK_TRACK", "1")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("xtask: failed to spawn the server: {e}");
            std::process::exit(1);
        });
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.as_mut().expect("server stdout"))
        .read_line(&mut line)
        .unwrap_or_else(|e| {
            eprintln!("xtask: server printed no address: {e}");
            std::process::exit(1);
        });
    let addr = line.trim().rsplit(' ').next().unwrap_or_default().to_string();
    if addr.is_empty() {
        eprintln!("xtask: could not parse the server address from `{line}`");
        std::process::exit(1);
    }
    ServerProc { child, addr }
}

/// Ask a server to drain (close its stdin) and require a clean exit —
/// a lock-tracker violation recorded during serving exits non-zero.
fn stop_server(mut server: ServerProc, what: &str) {
    drop(server.child.stdin.take());
    let status = server.child.wait().unwrap_or_else(|e| {
        eprintln!("xtask: waiting for the {what} server: {e}");
        std::process::exit(1);
    });
    if !status.success() {
        eprintln!(
            "xtask: chaos FAILED — the {what} server exited {status} \
             (exit 3 = lock-tracker violations; see its stderr)"
        );
        std::process::exit(1);
    }
}

fn chaos_client(addr: &str) -> crosse_server::Client {
    let mut c = crosse_server::Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("xtask: chaos client connect failed: {e}");
        std::process::exit(1);
    });
    c.hello("director").unwrap_or_else(|e| {
        eprintln!("xtask: chaos client hello failed: {e}");
        std::process::exit(1);
    });
    c
}

/// Raw handshake: connect, exchange magic, return the socket.
fn raw_conn(addr: &str) -> std::net::TcpStream {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("xtask: raw connect failed: {e}");
        std::process::exit(1);
    });
    s.write_all(crosse_server::MAGIC).expect("magic");
    let mut echo = [0u8; 8];
    s.read_exact(&mut echo).expect("magic echo");
    s
}

/// Drain a socket until the peer closes it (bounded by a read timeout so
/// a wedged server fails the harness instead of hanging it; a timeout
/// error also ends the abuse connection, which is all we need).
fn read_until_close(s: &mut std::net::TcpStream) {
    use std::io::Read;
    s.set_read_timeout(Some(std::time::Duration::from_secs(10))).ok();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Abuse phase: malformed/truncated/oversized/slowloris frames and
/// killed-mid-query connections against a live server taking real load.
/// The server must answer everything typed (or close) and keep serving.
fn chaos_abuse(bin: &str, rounds: usize) {
    use crosse_server::{ErrorCode, Lang, QueryOutcome, Request};
    use std::io::Write;

    let server = spawn_server(
        bin,
        &["--max-active", "2", "--queue-depth", "2", "--read-timeout-ms", "250"],
    );
    let addr = server.addr.clone();
    println!("xtask: chaos abuse: server at {addr}, {rounds} round(s)");

    // Seed a table big enough that queries hold slots measurably.
    let mut seed = chaos_client(&addr);
    seed.query(Lang::Sql, "CREATE TABLE big (x INT)", 0).expect("create big");
    let values: Vec<String> = (0..2000).map(|i| format!("({i})")).collect();
    seed.query(Lang::Sql, &format!("INSERT INTO big VALUES {}", values.join(",")), 0)
        .expect("fill big");

    // Background load: concurrent clients issuing queries the whole time.
    // Every outcome must be typed — Done, BUSY, or DEADLINE_EXCEEDED.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load_threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = chaos_client(&addr);
                let (mut done, mut shed) = (0u32, 0u32);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = c
                        .query(Lang::Sql, "SELECT COUNT(*) FROM big a, big b WHERE a.x < 40", 5_000)
                        .unwrap_or_else(|e| {
                            eprintln!("xtask: load client lost its connection: {e}");
                            std::process::exit(1);
                        });
                    match r.outcome {
                        QueryOutcome::Done { .. } => done += 1,
                        QueryOutcome::Error { code: ErrorCode::Busy, .. } => {
                            shed += 1;
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                        QueryOutcome::Error { code: ErrorCode::DeadlineExceeded, .. } => {}
                        QueryOutcome::Error { code, message } => {
                            eprintln!("xtask: load client got unexpected {code:?}: {message}");
                            std::process::exit(1);
                        }
                    }
                }
                (done, shed)
            })
        })
        .collect();

    for round in 0..rounds {
        // 1. Wrong magic: the server closes without crashing.
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.write_all(b"HTTP/1.1 ").expect("bogus preamble");
        read_until_close(&mut s);

        // 2. Garbage payload in a well-framed message: typed error reply.
        let mut s = raw_conn(&addr);
        let garbage: Vec<u8> = (0..(round % 48 + 1)).map(|i| (i * 37 + round) as u8).collect();
        s.write_all(&(garbage.len() as u32).to_le_bytes()).expect("len");
        s.write_all(&garbage).expect("garbage");
        read_until_close(&mut s);

        // 3. Truncated frame: declare 300 bytes, send a few, vanish.
        let mut s = raw_conn(&addr);
        s.write_all(&300u32.to_le_bytes()).expect("len");
        s.write_all(&[0x02, 0x00, 0x01]).expect("partial");
        drop(s);

        // 4. Oversized length prefix: typed TOO_LARGE, never an allocation.
        let mut s = raw_conn(&addr);
        s.write_all(&u32::MAX.to_le_bytes()).expect("huge len");
        read_until_close(&mut s);

        // 5. Slowloris: start a frame, then stall past the read timeout.
        let mut s = raw_conn(&addr);
        s.write_all(&[0x10, 0x00]).expect("half a length prefix");
        std::thread::sleep(std::time::Duration::from_millis(400));
        read_until_close(&mut s);

        // 6. Kill a connection mid-query: hello, fire a row-heavy query,
        //    read a little, vanish. The slot must come back (the load
        //    clients would starve into BUSY forever otherwise).
        let mut s = raw_conn(&addr);
        let hello = Request::Hello { user: "director".into() }.encode();
        s.write_all(&(hello.len() as u32).to_le_bytes()).expect("len");
        s.write_all(&hello).expect("hello");
        let mut reply = [0u8; 64];
        use std::io::Read;
        let _ = s.read(&mut reply);
        let q = Request::Query {
            lang: Lang::Sql,
            deadline_ms: 30_000,
            text: "SELECT a.x, b.x FROM big a, big b".into(),
        }
        .encode();
        s.write_all(&(q.len() as u32).to_le_bytes()).expect("len");
        s.write_all(&q).expect("query");
        let _ = s.read(&mut reply); // first bytes of the stream
        drop(s);
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (mut done, mut shed) = (0u32, 0u32);
    for t in load_threads {
        let (d, s) = t.join().unwrap_or_else(|_| {
            eprintln!("xtask: a load client panicked");
            std::process::exit(1);
        });
        done += d;
        shed += s;
    }

    // The server survived everything: a fresh session works, and the
    // stats show the abuse was actually seen and typed.
    let mut probe = chaos_client(&addr);
    probe.ping().expect("post-abuse ping");
    let r = probe.query(Lang::Sql, "SELECT COUNT(*) FROM big", 0).expect("post-abuse query");
    if let Some((code, msg)) = r.error() {
        eprintln!("xtask: post-abuse query failed: {code:?}: {msg}");
        std::process::exit(1);
    }
    let stats = probe.stats().expect("post-abuse stats");
    let stat = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap_or(0);
    println!(
        "xtask: chaos abuse: {done} queries completed, {shed} shed typed-BUSY, \
         {} protocol errors typed, {} cancelled, p95 {}µs",
        stat("protocol_errors"),
        stat("cancelled"),
        stat("p95_us"),
    );
    if stat("protocol_errors") == 0 {
        eprintln!("xtask: chaos FAILED — the abuse rounds left no protocol_errors trace");
        std::process::exit(1);
    }
    if done == 0 {
        eprintln!("xtask: chaos FAILED — no load query completed during abuse");
        std::process::exit(1);
    }
    drop(probe);
    stop_server(server, "abuse-phase");
}

/// Durability phase: `kill -9` the server mid-write-load against a WAL
/// data dir, restart it on the same dir, and verify over the wire that
/// every acknowledged batch survived whole (and none tore).
fn chaos_kill9(bin: &str, batches: u64) {
    use crosse_server::{Lang, QueryOutcome};

    let dir = std::env::temp_dir().join(format!("crosse-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().to_string();

    let mut server = spawn_server(bin, &["--data-dir", &dir_arg]);
    println!("xtask: chaos kill-9: durable server at {} ({batches} acked batches)", server.addr);
    let mut c = chaos_client(&server.addr);
    c.query(Lang::Sql, "CREATE TABLE chaos_log (batch INT, item INT)", 0)
        .expect("create chaos_log");
    const ROWS_PER_BATCH: u64 = 16;
    let mut last_ack = None;
    for b in 0..batches {
        let values: Vec<String> =
            (0..ROWS_PER_BATCH).map(|i| format!("({b}, {i})")).collect();
        let r = c
            .query(Lang::Sql, &format!("INSERT INTO chaos_log VALUES {}", values.join(",")), 0)
            .expect("insert batch");
        match r.outcome {
            QueryOutcome::Done { .. } => last_ack = Some(b),
            other => {
                eprintln!("xtask: chaos batch {b} failed: {other:?}");
                std::process::exit(1);
            }
        }
    }
    // One more batch in flight when the kill lands: its DONE never
    // arrives, so it is NOT acked — it may be lost, but must not tear.
    // Connected before the race starts: only the INSERT may meet the kill.
    let mut c2 = chaos_client(&server.addr);
    let torn = std::thread::spawn(move || {
        let values: Vec<String> =
            (0..64).map(|i| format!("({}, {i})", u64::MAX / 2)).collect();
        // The server dies mid-exchange; any error is expected here.
        let _ = c2.query(
            Lang::Sql,
            &format!("INSERT INTO chaos_log VALUES {}", values.join(",")),
            0,
        );
    });
    std::thread::sleep(std::time::Duration::from_millis(3));
    server.child.kill().expect("kill -9 server"); // SIGKILL: no flush, no drain
    let _ = server.child.wait();
    let _ = torn.join();
    let last_ack = last_ack.unwrap_or_else(|| {
        eprintln!("xtask: no batch was ever acked before the kill");
        std::process::exit(1);
    });

    // Reopen the same data dir and verify over the wire.
    let server = spawn_server(bin, &["--data-dir", &dir_arg]);
    let mut v = chaos_client(&server.addr);
    let r = v
        .query(
            Lang::Sql,
            "SELECT batch, COUNT(*) AS n FROM chaos_log GROUP BY batch ORDER BY batch",
            0,
        )
        .expect("verify query");
    if let Some((code, msg)) = r.error() {
        eprintln!("xtask: chaos verify query failed: {code:?}: {msg}");
        std::process::exit(1);
    }
    let mut present = std::collections::HashMap::new();
    for row in &r.rows {
        if let [batch, n] = &row[..] {
            present.insert(value_as_i64(batch), value_as_i64(n));
        }
    }
    let mut failures = Vec::new();
    for b in 0..=last_ack {
        match present.get(&(b as i64)) {
            Some(&n) if n == ROWS_PER_BATCH as i64 => {}
            Some(&n) => failures.push(format!(
                "acked batch {b} torn: {n} of {ROWS_PER_BATCH} rows survived"
            )),
            None => failures.push(format!("acked batch {b} lost after kill -9")),
        }
    }
    // The unacked in-flight batch: all-or-nothing.
    if let Some(&n) = present.get(&((u64::MAX / 2) as i64)) {
        if n != 64 {
            failures.push(format!("in-flight batch torn: {n} of 64 rows"));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("xtask: chaos FAILED — {f}");
        }
        std::process::exit(1);
    }
    println!(
        "xtask: chaos kill-9: {} acked batches intact after recovery, in-flight batch {}",
        last_ack + 1,
        if present.contains_key(&((u64::MAX / 2) as i64)) { "replayed whole" } else { "dropped whole" },
    );
    drop(v);
    stop_server(server, "recovery-verify");
    let _ = std::fs::remove_dir_all(&dir);
}

fn value_as_i64(v: &crosse_server::Value) -> i64 {
    match v {
        crosse_server::Value::Int(i) => *i,
        _ => -1,
    }
}

/// Network-server fault injection (see ISSUE: admission control, typed
/// shedding, cancellation, durability): an abuse phase (malformed /
/// truncated / oversized / slowloris frames, connections killed
/// mid-query, all under concurrent load) and a `kill -9` durability phase
/// (WAL recovery proven over the wire). Debug build with
/// `CROSSE_LOCK_TRACK=1`: a lock-order violation fails the server's exit.
fn chaos(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    run(
        "build crosse-cli (debug: the lock tracker compiles out of release)",
        cargo().args(["build", "--bin", "crosse-cli"]),
    );
    let bin = "target/debug/crosse-cli";
    let (rounds, batches) = if quick { (3, 12) } else { (12, 60) };
    chaos_abuse(bin, rounds);
    chaos_kill9(bin, batches);
    println!(
        "xtask: chaos OK ({rounds} abuse rounds survived typed, kill -9 recovery \
         verified over the wire{})",
        if quick { ", --quick" } else { "" }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = args.first().cloned().unwrap_or_default();
    match task.as_str() {
        "bench-smoke" => bench_smoke(),
        "bench-baseline" => bench_baseline(),
        "bench-diff" => bench_diff(&args[1..]),
        "explain-snapshots" => explain_snapshots(),
        "lint" => lint_gate(),
        "srclint" => srclint(),
        "check" => check(),
        "loc" => loc(),
        "clippy" => clippy(),
        "rustdoc" => rustdoc(),
        "stress" => stress(),
        "crash" => crash(),
        "chaos" => chaos(&args[1..]),
        other => {
            eprintln!(
                "unknown task `{other}`\n\nusage: cargo xtask <task>\n\
                 tasks:\n  bench-smoke     run all benches in --test mode + clippy -D warnings on the workspace\n\
                 bench-baseline  regenerate BENCH_e3.json via the experiments binary (e3 + e11 + e12)\n\
                 bench-diff      re-run e3 + e12 (ex4.6) and diff against the committed BENCH_e3.json\n\
                                 (--threshold 0.25 / CROSSE_BENCH_THRESHOLD; non-zero exit on regression)\n\
                 explain-snapshots  regenerate tests/snapshots/*.snap and diff against the committed ones\n\
                 lint            regenerate the corpus lint snapshots (lint_golden) and diff against\n\
                                 the committed ones (non-zero exit on drift)\n\
                 srclint         lint our own Rust sources (R001-R006: std::sync locks, unwrap/panic\n\
                                 discipline, lock labels, forbid(unsafe_code), planner wall-clock)\n\
                                 and gate the fixture corpus snapshot\n\
                 check           aggregate gate: clippy + rustdoc + srclint + lint + explain-snapshots + full tests\n\
                                 + examples + chaos --quick + the crossebench package's tests and --smoke\n\
                 loc             non-test Rust lines under crates/ + src/ (no tests/ files, no\n\
                                 #[cfg(test)] items), per crate and total: the size to report per PR\n\
                 clippy          cargo clippy --workspace --all-targets -- -D warnings\n\
                 rustdoc         cargo doc --no-deps --workspace with RUSTDOCFLAGS=-D warnings\n\
                 stress          concurrency tests (release), 10x iterations, worker threads 1/4/8,\n\
                                 then a debug CROSSE_LOCK_TRACK=1 lock-order gate pass\n\
                 crash           kill -9 a write-heavy child mid-batch, reopen, verify no acked\n\
                                 write is lost and no partial batch surfaces (2 rounds)\n\
                 chaos           network fault injection against `crosse-cli --serve` (debug,\n\
                                 CROSSE_LOCK_TRACK=1): malformed/truncated/slowloris frames and\n\
                                 killed-mid-query connections under concurrent load, then kill -9\n\
                                 the server mid-write-load and verify WAL recovery over the wire\n\
                                 (--quick for the bounded gate run used by `check`)"
            );
            std::process::exit(2);
        }
    }
}
