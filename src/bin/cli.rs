// srclint: allow(R002): the unwrap follows an is_some() branch guard and a never-returning workload call
//! Interactive CroSSE shell: a SESQL REPL over a generated SmartGround
//! databank with per-user knowledge bases, run in process or, with
//! `--connect`, against a CROSNET1 server (`--serve`). Both modes share
//! one input loop, one command dispatcher and one result printer.
//!
//! ```text
//! cargo run --bin crosse-cli                # default databank (50 landfills)
//! cargo run --bin crosse-cli -- --landfills 200 --seed 7
//! echo "SELECT name, city FROM landfill LIMIT 3;" | cargo run --bin crosse-cli
//! ```
//!
//! SQL/SESQL statements end with `;` and may span lines; everything else is
//! a one-line `.` or `\` command (`.help` lists them).

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

use crosse::core::platform::CrossePlatform;
use crosse::core::sqm::{PipelineReport, SesqlEngine};
use crosse::core::{is_write, Lang, Session, Statement, SyncPolicy, WalOptions};
use crosse::rdf::provenance::StatementId;
use crosse::rdf::store::Triple;
use crosse::rdf::term::Term;
use crosse::relational::{Column, DataType, Params, RowSet, Schema, Value};
use crosse::server::{
    params_of, Client, ClientError, ParamBinding, QueryOutcome, QueryResult, Server, ServerConfig,
};
use crosse::smartground::{standard_engine, standard_engine_at_with, SmartGroundConfig};

fn fmt_duration(d: Duration) -> String {
    if d >= Duration::from_millis(10) {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

fn main() {
    let mut landfills = 50usize;
    let mut seed = 42u64;
    let mut timing = false;
    let mut explain = false;
    let mut lint = false;
    let mut deny_warnings = false;
    let mut threads = 1usize;
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut wal_sync: Option<String> = None;
    let mut crash_workload = false;
    let mut verify_crash: Option<u64> = None;
    let mut serve: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut user = "director".to_string();
    let mut max_active: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut deadline_ms: Option<u32> = None;
    let mut read_timeout_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--landfills" => {
                landfills = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--landfills needs a number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--timing" => timing = true,
            "--explain" => explain = true,
            "--lint" => lint = true,
            "--deny-warnings" => deny_warnings = true,
            "--data-dir" => {
                data_dir = Some(
                    args.next().unwrap_or_else(|| die("--data-dir needs a path")).into(),
                );
            }
            "--wal-sync" => {
                wal_sync =
                    Some(args.next().unwrap_or_else(|| die("--wal-sync needs a policy")));
            }
            // Internal hooks for the crash-recovery harness (`cargo xtask
            // crash`); deliberately undocumented in --help.
            "--crash-workload" => crash_workload = true,
            "--verify-crash" => {
                verify_crash = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--verify-crash needs a batch number")),
                );
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--threads needs a number >= 1"));
            }
            "--serve" => {
                serve = Some(args.next().unwrap_or_else(|| die("--serve needs HOST:PORT")));
            }
            "--connect" => {
                connect =
                    Some(args.next().unwrap_or_else(|| die("--connect needs HOST:PORT")));
            }
            "--user" => {
                user = args.next().unwrap_or_else(|| die("--user needs a name"));
            }
            "--max-active" => {
                max_active = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--max-active needs a number >= 1")),
                );
            }
            "--queue-depth" => {
                queue_depth = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--queue-depth needs a number")),
                );
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--deadline-ms needs a number")),
                );
            }
            // Internal hook for the chaos harness (`cargo xtask chaos`):
            // shrink the slow-frame window so slowloris rounds are fast.
            "--read-timeout-ms" => {
                read_timeout_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--read-timeout-ms needs a number")),
                );
            }
            "--help" | "-h" => {
                println!(
                    "crosse-cli [--landfills N] [--seed N] [--timing] [--explain] [--lint]\n\
                     \x20          [--deny-warnings] [--threads N] [--data-dir DIR]\n\
                     \x20          [--wal-sync POLICY]\n\
                     \n\
                     --landfills N  databank scale: number of generated landfills (default 50)\n\
                     --seed N       databank RNG seed (default 42)\n\
                     --timing       report prepare vs execute wall time per statement\n\
                     --explain      print the optimized plan (EXPLAIN, with rewrite-pass\n\
                     \x20              annotations and shared spools) before each result\n\
                     --lint         run the semantic linter (always-false predicates,\n\
                     \x20              cross joins, dead condition tags, ...) on each\n\
                     \x20              statement and print its findings\n\
                     --deny-warnings  refuse to execute statements with warning-or-worse\n\
                     \x20              lint findings; exit non-zero if any were refused\n\
                     --threads N    worker threads for intra-query parallelism (default 1).\n\
                     \x20              Scans, filters, projections and hash-join probes\n\
                     \x20              partition table snapshots across N threads; SPARQL\n\
                     \x20              probe batches use the same budget.\n\
                     --data-dir DIR persist the databank and knowledge base at DIR through\n\
                     \x20              a write-ahead log: first run seeds and logs, later\n\
                     \x20              runs recover (snapshot + log replay). Adds the\n\
                     \x20              \\checkpoint and \\wal-stats commands.\n\
                     --wal-sync P   WAL fsync policy: always, every_n:<N> (default\n\
                     \x20              every_n:256) or off. Requires --data-dir.\n\
                     --serve ADDR   serve the databank over TCP (CROSNET1 framed protocol,\n\
                     \x20              admission control + per-query deadlines; see\n\
                     \x20              crates/server/DESIGN.md). Prints the bound address,\n\
                     \x20              then runs until stdin closes (graceful drain).\n\
                     --connect ADDR run the same shell against a remote server instead of a\n\
                     \x20              local databank (.help marks the commands that need\n\
                     \x20              one mode or the other)\n\
                     --user NAME    session user (default director; registered on first use)\n\
                     --max-active N --serve: concurrent query limit (default 4)\n\
                     --queue-depth N --serve: admission queue depth (default 16)\n\
                     --deadline-ms N --serve: default per-query deadline (0 = none);\n\
                     \x20              --connect: per-query deadline sent with each query\n\
                     \n\
                     {HELP}"
                );
                return;
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }

    let backend: Box<dyn Backend> = match connect {
        Some(addr) => {
            let mut client = Client::connect(addr.as_str())
                .unwrap_or_else(|e| die(&format!("--connect {addr}: {e}")));
            let server =
                client.hello(&user).unwrap_or_else(|e| die(&format!("--connect {addr}: {e}")));
            if is_tty() {
                println!("connected to {server} at {addr} as {user}");
            }
            let label = format!("{user}@{addr}");
            Box::new(Remote { client, label, deadline_ms: deadline_ms.unwrap_or(0) })
        }
        None => {
            let engine = open_engine(landfills, seed, data_dir.as_deref(), wal_sync.as_deref());
            engine.set_exec_threads(threads);
            if crash_workload || verify_crash.is_some() {
                if data_dir.is_none() {
                    die("--crash-workload / --verify-crash require --data-dir");
                }
                if crash_workload {
                    run_crash_workload(&engine);
                }
                verify_crash_state(&engine, verify_crash.unwrap());
            }
            if let Some(addr) = serve {
                let mut config = ServerConfig { addr, ..ServerConfig::default() };
                if let Some(n) = max_active {
                    config.max_active = n;
                }
                if let Some(n) = queue_depth {
                    config.queue_depth = n;
                }
                if let Some(ms) = deadline_ms {
                    config.default_deadline_ms = ms;
                }
                if let Some(ms) = read_timeout_ms {
                    config.read_timeout = Duration::from_millis(ms);
                }
                run_server(engine, config);
                return;
            }
            if is_tty() {
                println!(
                    "CroSSE shell — SmartGround databank with {landfills} landfills (seed {seed})."
                );
            }
            let session =
                Session::login(&engine, &user).unwrap_or_else(|e| die(&format!("--user: {e}")));
            let platform = CrossePlatform::from_engine(engine);
            Box::new(Local { platform, session, prepared: HashMap::new() })
        }
    };
    if is_tty() {
        println!("SESQL statements end with `;`. Type `.help` for commands.");
    }
    let mut shell = Shell {
        backend,
        show_report: false,
        timing,
        explain,
        lint,
        deny_warnings,
        lint_failed: false,
        prepared: BTreeMap::new(),
    };
    shell.repl();
    if let Some(client) = shell.backend.remote() {
        let _ = client.close();
    }
    if shell.lint_failed {
        std::process::exit(1);
    }
}

/// Build the SmartGround databank in memory, or open it durably at
/// `data_dir` (seeding it on first use).
fn open_engine(
    landfills: usize,
    seed: u64,
    data_dir: Option<&std::path::Path>,
    wal_sync: Option<&str>,
) -> SesqlEngine {
    let config = SmartGroundConfig::default()
        .with_landfills(landfills)
        .with_seed(seed);
    match data_dir {
        Some(dir) => {
            let opts = match wal_sync {
                Some(p) => WalOptions {
                    sync: SyncPolicy::parse(p).unwrap_or_else(|| {
                        die("--wal-sync needs always, every_n:<N> or off")
                    }),
                },
                None => WalOptions::default(),
            };
            let engine =
                standard_engine_at_with(&config, "director", dir, opts).unwrap_or_else(
                    |e| die(&format!("failed to open data dir {}: {e}", dir.display())),
                );
            for w in engine.recovery_warnings() {
                eprintln!("crosse-cli: recovery: {w}");
            }
            engine
        }
        None => {
            if wal_sync.is_some() {
                die("--wal-sync requires --data-dir");
            }
            standard_engine(&config, "director").unwrap_or_else(|e| {
                die(&format!("failed to build the databank: {e}"));
            })
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("crosse-cli: {msg}");
    std::process::exit(1)
}

/// Rows per crash-workload batch. Each batch is ONE multi-row INSERT —
/// one WAL record — so recovery either replays the whole batch or none
/// of it; the verifier checks exactly that.
const CRASH_ROWS_PER_BATCH: i64 = 32;

/// `--crash-workload`: write batches forever (until killed). Per batch:
/// one multi-row INSERT into `crash_log` and one provenance statement,
/// then an `ack <batch>` line on stdout. The harness (`cargo xtask
/// crash`) SIGKILLs this process mid-batch and reopens the directory
/// with `--verify-crash <last acked batch>`.
fn run_crash_workload(engine: &SesqlEngine) -> ! {
    let db = engine.database();
    let kb = engine.knowledge_base();
    if !db.catalog().has_table("crash_log") {
        db.execute("CREATE TABLE crash_log (batch INT, item INT)")
            .unwrap_or_else(|e| die(&format!("crash-workload setup: {e}")));
    }
    // Resume after the highest batch already recovered (re-runs append).
    let start = match db.query("SELECT MAX(batch) AS m FROM crash_log") {
        Ok(rs) => match rs.rows.first().and_then(|r| r.first()) {
            Some(Value::Int(m)) => m + 1,
            _ => 0,
        },
        Err(e) => die(&format!("crash-workload resume: {e}")),
    };
    use std::io::Write as _;
    let mut out = io::stdout();
    for b in start.. {
        let values: Vec<String> = (0..CRASH_ROWS_PER_BATCH)
            .map(|i| format!("({b}, {i})"))
            .collect();
        db.execute(&format!("INSERT INTO crash_log VALUES {}", values.join(", ")))
            .unwrap_or_else(|e| die(&format!("crash-workload insert: {e}")));
        kb.assert_statement(
            "director",
            &Triple::new(
                Term::iri(format!("crash:batch{b}")),
                Term::iri("crash:completed"),
                Term::lit(b.to_string()),
            ),
        )
        .unwrap_or_else(|e| die(&format!("crash-workload assert: {e}")));
        if b == start + 3 {
            // One mid-workload checkpoint so the kill also exercises
            // snapshot + tail recovery, not just log replay.
            engine
                .checkpoint()
                .and_then(|_| engine.checkpoint_join())
                .unwrap_or_else(|e| die(&format!("crash-workload checkpoint: {e}")));
        }
        println!("ack {b}");
        let _ = out.flush();
    }
    unreachable!("crash workload runs until killed")
}

/// `--verify-crash N`: after recovery, check the crash-workload
/// invariants — every batch present in `crash_log` is complete (batch
/// atomicity) and every acked batch `0..=N` is present in both
/// substrates (no lost acknowledged writes). Exits 0 on success, 2 on a
/// violated invariant.
fn verify_crash_state(engine: &SesqlEngine, acked: u64) -> ! {
    let mut failures: Vec<String> = Vec::new();
    let per_batch = engine
        .database()
        .query("SELECT batch, COUNT(*) AS n FROM crash_log GROUP BY batch")
        .unwrap_or_else(|e| die(&format!("verify-crash query: {e}")));
    let mut present = std::collections::HashSet::new();
    for row in &per_batch.rows {
        let (Value::Int(b), Value::Int(n)) = (&row[0], &row[1]) else {
            failures.push(format!("unexpected row shape: {row:?}"));
            continue;
        };
        present.insert(*b);
        if *n != CRASH_ROWS_PER_BATCH {
            failures.push(format!(
                "batch {b} is partial: {n} of {CRASH_ROWS_PER_BATCH} rows (torn batch \
                 replayed)"
            ));
        }
    }
    let kb = engine.knowledge_base();
    for b in 0..=acked as i64 {
        if !present.contains(&b) {
            failures.push(format!("acked batch {b} lost from crash_log"));
        }
        let sparql =
            format!("SELECT ?o WHERE {{ <crash:batch{b}> <crash:completed> ?o }}");
        match kb.query_as("director", &sparql) {
            Ok(sols) if sols.is_empty() => {
                failures.push(format!("acked batch {b} lost from the knowledge base"))
            }
            Ok(_) => {}
            Err(e) => failures.push(format!("acked batch {b} KB query failed: {e}")),
        }
    }
    if failures.is_empty() {
        println!(
            "crash-verify ok: {} acked batches intact, {} batches total",
            acked + 1,
            present.len()
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("crash-verify FAILED: {f}");
    }
    std::process::exit(2)
}

fn is_tty() -> bool {
    use std::io::IsTerminal;
    io::stdin().is_terminal()
}

/// `--serve`: run the CROSNET1 server until stdin closes, then drain and
/// stop. The bound address goes to stdout first so harnesses that bind
/// `:0` can discover the real port.
fn run_server(engine: SesqlEngine, config: ServerConfig) {
    let mut handle = match Server::start(engine, config) {
        Ok(h) => h,
        Err(e) => die(&format!("--serve failed to bind: {e}")),
    };
    println!("crosse-server listening on {}", handle.addr());
    let _ = io::stdout().flush();
    // Serve until the controlling process closes our stdin (or forever
    // under a detached stdin that stays open). `kill -9` is the chaos
    // harness's ungraceful path.
    let stdin = io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    eprintln!("crosse-server: draining...");
    handle.shutdown();
    let shed = handle
        .stats()
        .into_iter()
        .find(|(k, _)| k == "shed")
        .map(|(_, v)| v)
        .unwrap_or(0);
    eprintln!("crosse-server: stopped ({shed} queries shed)");
    // Under CROSSE_LOCK_TRACK=1 (debug builds) a serve run doubles as a
    // lock-discipline gate: any acquisition-order inversion or lock held
    // across a blocking region recorded during serving fails the exit.
    let violations = parking_lot::tracking::violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("crosse-server: lock violation: {v}");
        }
        std::process::exit(3);
    }
}

/// Split a command line into its head word and the trimmed rest.
fn split_head(cmd: &str) -> (&str, &str) {
    match cmd.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim()),
        None => (cmd, ""),
    }
}

fn lost<T>(e: ClientError) -> T {
    die(&format!("connection lost: {e}"))
}

/// One statement's result, as both backends deliver it.
struct Output {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    /// A write's affected-row count (a write has no table).
    affected: Option<u64>,
    /// The Fig. 6 pipeline report (in-process SESQL only).
    report: Option<PipelineReport>,
    /// What `--timing` prints: how long preparing and executing took.
    timing: String,
}

/// Where the shell's commands run: in process over a [`Session`], or on a
/// CROSNET1 server through a [`Client`]. Everything the two share goes
/// through this trait, so local and remote output agree by construction.
trait Backend {
    /// `crosse:<label>> ` is the prompt.
    fn label(&self) -> String;
    /// Prepare and execute statement text.
    fn run(&mut self, lang: Lang, text: &str) -> Result<Output, String>;
    /// Prepare SESQL text under `name`; returns its parameter count.
    fn prepare(&mut self, name: &str, text: &str) -> Result<usize, String>;
    /// Execute the statement prepared under `name`.
    fn exec(&mut self, name: &str, params: &[ParamBinding]) -> Result<Output, String>;
    fn explain(&mut self, text: &str) -> Result<String, String>;
    /// Lint findings, one rendered diagnostic each.
    fn lint(&mut self, text: &str) -> Result<Vec<String>, String>;
    /// The in-process side, for the commands that need it.
    fn local(&mut self) -> Option<&mut Local> {
        None
    }
    /// The connection, for the commands that need it.
    fn remote(&mut self) -> Option<&mut Client> {
        None
    }
}

/// The in-process backend: the platform (users, annotations) and a
/// session over its engine.
struct Local {
    platform: CrossePlatform,
    session: Session,
    prepared: HashMap<String, Statement>,
}

/// Execute a statement and drain its cursor.
fn drain(stmt: &Statement, params: &Params) -> Result<Output, String> {
    let t0 = Instant::now();
    let mut cursor = stmt.execute(params).map_err(|e| e.to_string())?;
    let table = cursor.collect_rows().map_err(|e| e.to_string())?;
    Ok(Output {
        columns: table.schema.columns.iter().map(|c| c.display_name()).collect(),
        rows: table.rows,
        affected: cursor.affected(),
        report: cursor.report().cloned(),
        timing: format!("execute {}", fmt_duration(t0.elapsed())),
    })
}

impl Backend for Local {
    fn label(&self) -> String {
        self.session.user().to_string()
    }

    fn run(&mut self, lang: Lang, text: &str) -> Result<Output, String> {
        let t0 = Instant::now();
        let stmt = self.session.prepare(lang, text).map_err(|e| e.to_string())?;
        let prepared_in = t0.elapsed();
        let mut out = drain(&stmt, &Params::new())?;
        let stats = self.session.engine().prepared_cache_stats();
        out.timing = format!(
            "prepare {} (cache: {} hits / {} misses) | {}",
            fmt_duration(prepared_in),
            stats.hits,
            stats.misses,
            out.timing
        );
        Ok(out)
    }

    fn prepare(&mut self, name: &str, text: &str) -> Result<usize, String> {
        let stmt = self.session.prepare(Lang::Sesql, text).map_err(|e| e.to_string())?;
        let params = stmt.param_slots().len();
        self.prepared.insert(name.to_string(), stmt);
        Ok(params)
    }

    fn exec(&mut self, name: &str, params: &[ParamBinding]) -> Result<Output, String> {
        let stmt = self.prepared.get(name).ok_or("no such prepared statement")?;
        let mut out = drain(stmt, &params_of(params))?;
        out.timing = format!("prepare (cached handle) | {}", out.timing);
        Ok(out)
    }

    fn explain(&mut self, text: &str) -> Result<String, String> {
        self.session.explain(Lang::Sesql, text).map_err(|e| e.to_string())
    }

    fn lint(&mut self, text: &str) -> Result<Vec<String>, String> {
        let diags = self.session.lint(Lang::Sesql, text).map_err(|e| e.to_string())?;
        Ok(diags.iter().map(ToString::to_string).collect())
    }

    fn local(&mut self) -> Option<&mut Local> {
        Some(self)
    }
}

/// The `--connect` backend. `deadline_ms == 0` defers to the server's
/// default deadline.
struct Remote {
    client: Client,
    label: String,
    deadline_ms: u32,
}

impl Remote {
    fn output(result: QueryResult) -> Result<Output, String> {
        match result.outcome {
            QueryOutcome::Error { message, .. } => Err(message),
            QueryOutcome::Done { rows, elapsed_us, .. } => Ok(Output {
                // A write answers DONE without a SCHEMA.
                affected: result.columns.is_empty().then_some(rows),
                columns: result.columns,
                rows: result.rows,
                report: None,
                timing: format!(
                    "execute {} (server)",
                    fmt_duration(Duration::from_micros(elapsed_us))
                ),
            }),
        }
    }
}

impl Backend for Remote {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn run(&mut self, lang: Lang, text: &str) -> Result<Output, String> {
        Remote::output(self.client.query(lang, text, self.deadline_ms).unwrap_or_else(lost))
    }

    fn prepare(&mut self, name: &str, text: &str) -> Result<usize, String> {
        let reply = self.client.prepare(Lang::Sesql, name, text).unwrap_or_else(lost);
        reply.map(usize::from)
    }

    fn exec(&mut self, name: &str, params: &[ParamBinding]) -> Result<Output, String> {
        let result = self.client.execute(name, params.to_vec(), self.deadline_ms);
        Remote::output(result.unwrap_or_else(lost))
    }

    fn explain(&mut self, text: &str) -> Result<String, String> {
        self.client.explain(text).unwrap_or_else(lost)
    }

    fn lint(&mut self, text: &str) -> Result<Vec<String>, String> {
        let text = self.client.lint(text).unwrap_or_else(lost)?;
        Ok(text.lines().map(str::to_string).collect())
    }

    fn remote(&mut self) -> Option<&mut Client> {
        Some(&mut self.client)
    }
}

/// Commands that need the in-process backend.
const LOCAL_COMMANDS: &[&str] = &[
    ".user", ".users", ".tables", ".schema", ".assert", ".kb", ".browse", ".import", ".stored",
    "\\checkpoint", "\\wal-stats", "\\lock-stats",
];

const HELP: &str = "\
SQL/SESQL statements end with `;` and may span lines. Commands take one line.
`$name` / `?` placeholders bind at \\exec time. [local] commands need the
in-process shell, [remote] ones need --connect; the rest run in both.
  \\prepare NAME QUERY       compile a SESQL query once under a name
  \\exec NAME [$k=v | v]...  execute it with named/positional bindings
                            (single-quote values with spaces/=/$: $k='a b',
                             '' escapes a quote inside a quoted value)
  \\explain STMT|NAME        show the optimized plan (pass annotations,
                            shared spools) for a statement or a prepared name
  .explain STMT             the same
  \\lint STMT|NAME           run the semantic linter on a statement or a
                            prepared name and list its findings
  \\prepared                 list prepared statements
  .sparql QUERY             run SPARQL (SELECT, ASK, CONSTRUCT) in your context
  .report on|off            print per-stage pipeline timings after each query
  .help                     this text
  .quit                     exit
  .user [NAME]              [local] show or switch the user (registers new users)
  .users                    [local] list registered users
  .tables                   [local] list databank tables
  .schema TABLE             [local] show a table's columns
  .assert S P O             [local] add an RDF statement to your KB
  .kb                       [local] list your statements
  .browse                   [local] browse peers' public statements
  .import ID                [local] accept a peer statement as your own
  .stored NAME QUERY        [local] register a stored SPARQL query
                            (for REPLACECONSTANT)
  \\checkpoint               [local] write a snapshot and truncate the WAL
                            (--data-dir)
  \\wal-stats                [local] WAL state: LSNs, log bytes, checkpoint age
  \\lock-stats               [local] per-site lock acquisition/contention/hold
                            counters (debug builds with CROSSE_LOCK_TRACK=1)
  \\server-stats             [remote] server counters: admissions, sheds,
                            cancels, deadline hits, queue depth, p50/p95
  \\ping                     [remote] liveness round-trip";

/// The shell: one input loop, one dispatcher and one result printer over
/// either backend.
struct Shell {
    backend: Box<dyn Backend>,
    show_report: bool,
    /// `--timing`: report prepare vs execute wall time separately.
    timing: bool,
    /// `--explain`: print the optimized plan (with rewrite-pass
    /// annotations) before each statement's results.
    explain: bool,
    /// `--lint`: run the semantic linter on each statement and print its
    /// findings before the results.
    lint: bool,
    /// `--deny-warnings`: refuse to execute statements with warning-or-
    /// worse lint findings; the process exits non-zero at the end.
    deny_warnings: bool,
    /// Whether any statement was refused under `--deny-warnings`.
    lint_failed: bool,
    /// `\prepare`d statements: name → (text, parameter count).
    prepared: BTreeMap<String, (String, usize)>,
}

impl Shell {
    /// Read statements and commands from stdin until EOF or `.quit`.
    fn repl(&mut self) {
        let interactive = is_tty();
        let stdin = io::stdin();
        let mut buffer = String::new();
        loop {
            if interactive {
                if buffer.is_empty() {
                    print!("crosse:{}> ", self.backend.label());
                } else {
                    print!("   ...> ");
                }
                let _ = io::stdout().flush();
            }
            let mut line = String::new();
            match stdin.lock().read_line(&mut line) {
                Ok(0) => break, // EOF
                Ok(_) => {}
                Err(e) => die(&format!("stdin: {e}")),
            }
            let trimmed = line.trim();
            if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.starts_with('\\')) {
                if !self.command(trimmed.trim_end_matches(';')) {
                    break;
                }
                continue;
            }
            if trimmed.is_empty() && buffer.is_empty() {
                continue;
            }
            buffer.push_str(&line);
            if trimmed.ends_with(';') {
                let stmt = buffer.trim().trim_end_matches(';').trim().to_string();
                buffer.clear();
                if !stmt.is_empty() {
                    self.run_statement(&stmt);
                }
            }
        }
    }

    /// Run a SQL/SESQL statement (already stripped of its terminator).
    fn run_statement(&mut self, stmt: &str) {
        // DDL/DML has no plan to show and nothing to lint.
        if !is_write(stmt) {
            if (self.lint || self.deny_warnings) && !self.lint_statement(stmt) {
                return;
            }
            if self.explain {
                self.print_explain(stmt);
            }
        }
        let out = self.backend.run(Lang::Sesql, stmt);
        self.print(out);
    }

    /// The one result printer: the table (or the affected count), then
    /// what `--timing` and `.report on` ask for.
    fn print(&self, out: Result<Output, String>) {
        let out = match out {
            Ok(out) => out,
            Err(e) => return println!("error: {e}"),
        };
        match out.affected {
            Some(n) => println!("({n} rows affected)"),
            None => {
                let schema = Schema::new(
                    out.columns.into_iter().map(|c| Column::new(c, DataType::Text)).collect(),
                );
                print!("{}", RowSet { schema, rows: out.rows }.to_ascii_table());
            }
        }
        if self.timing {
            println!("-- {}", out.timing);
        }
        if let Some(report) = &out.report {
            if self.show_report {
                print_report(report);
            } else if self.timing {
                // How each SPARQL leg was served is part of the timing
                // picture even without `.report on`.
                print_legs(report);
            }
        }
    }

    /// Lint a statement, printing every finding. Returns whether execution
    /// may proceed (false only under `--deny-warnings` with warning-or-
    /// worse findings).
    fn lint_statement(&mut self, stmt: &str) -> bool {
        // A statement the linter cannot parse will fail identically at
        // execution, which reports the error in context.
        let Ok(findings) = self.backend.lint(stmt) else {
            return true;
        };
        for f in &findings {
            println!("-- lint: {f}");
        }
        let severe = |f: &String| f.starts_with("warning") || f.starts_with("error");
        if self.deny_warnings && findings.iter().any(severe) {
            println!(
                "error: statement refused under --deny-warnings ({} lint finding(s))",
                findings.len()
            );
            self.lint_failed = true;
            return false;
        }
        true
    }

    fn print_explain(&mut self, stmt: &str) {
        match self.backend.explain(stmt) {
            Ok(text) => print!("{text}"),
            Err(e) => println!("error: {e}"),
        }
    }

    /// A prepared statement's text for `\explain NAME` / `\lint NAME`;
    /// anything else is statement text.
    fn statement_text(&self, arg: &str) -> String {
        self.prepared.get(arg).map_or(arg, |(text, _)| text.as_str()).to_string()
    }

    /// Run one `.` or `\` command; returns false to exit the shell.
    fn command(&mut self, cmd: &str) -> bool {
        let (head, rest) = split_head(cmd);
        match head {
            ".quit" | ".exit" => return false,
            ".help" => println!("{HELP}"),
            ".report" => match rest {
                "on" | "off" => {
                    self.show_report = rest == "on";
                    println!("pipeline report {rest}");
                }
                _ => println!("usage: .report on|off"),
            },
            ".sparql" if rest.is_empty() => println!("usage: .sparql <query>"),
            ".sparql" => {
                let out = self.backend.run(Lang::Sparql, rest);
                self.print(out);
            }
            "\\prepare" => {
                let Some((name, query)) = rest.split_once(char::is_whitespace) else {
                    println!("usage: \\prepare <name> <query>");
                    return true;
                };
                let t0 = Instant::now();
                match self.backend.prepare(name, query.trim()) {
                    Ok(n) => {
                        let took = if self.timing {
                            format!(" in {}", fmt_duration(t0.elapsed()))
                        } else {
                            String::new()
                        };
                        println!("prepared `{name}` ({n} parameter(s)){took}");
                        self.prepared.insert(name.to_string(), (query.trim().to_string(), n));
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "\\exec" => self.exec(rest),
            "\\explain" | ".explain" if rest.is_empty() => {
                println!("usage: \\explain <statement>   (or \\explain <prepared-name>)")
            }
            "\\explain" | ".explain" => self.print_explain(&self.statement_text(rest)),
            "\\lint" if rest.is_empty() => {
                println!("usage: \\lint <statement>   (or \\lint <prepared-name>)")
            }
            "\\lint" => match self.backend.lint(&self.statement_text(rest)) {
                Ok(findings) if findings.is_empty() => println!("(no lint findings)"),
                Ok(findings) => findings.iter().for_each(|f| println!("{f}")),
                Err(e) => println!("error: {e}"),
            },
            "\\prepared" => {
                if self.prepared.is_empty() {
                    println!("(no prepared statements)");
                }
                for (name, (text, n)) in &self.prepared {
                    println!("{name} ({n} parameter(s)) — {text}");
                }
            }
            "\\server-stats" | "\\ping" => match self.backend.remote() {
                Some(client) if head == "\\ping" => {
                    client.ping().unwrap_or_else(lost);
                    println!("pong");
                }
                Some(client) => {
                    for (k, v) in client.stats().unwrap_or_else(lost) {
                        println!("{k:<18} {v}");
                    }
                }
                None => println!("`{head}` needs a server (--connect)"),
            },
            _ => match self.backend.local() {
                Some(local) => local.command(head, rest),
                None if LOCAL_COMMANDS.contains(&head) => {
                    println!("`{head}` needs the in-process shell (without --connect)")
                }
                None => println!("unknown command `{head}` (try .help)"),
            },
        }
        true
    }

    /// `\exec NAME [$k=v | v]...`.
    fn exec(&mut self, rest: &str) {
        let tokens = match split_exec_args(rest) {
            Ok(t) => t,
            Err(e) => return println!("error: {e}"),
        };
        let mut parts = tokens.into_iter();
        let Some(name) = parts.next() else {
            return println!(
                "usage: \\exec <name> [$k=v ...] [v ...]   (quote values with spaces: $k='a b')"
            );
        };
        if !self.prepared.contains_key(&name) {
            return println!("no prepared statement `{name}` (see \\prepare)");
        }
        let mut params = Vec::new();
        for arg in parts {
            let (name, value) = match arg.strip_prefix('$') {
                None => (String::new(), parse_value(&arg)),
                Some(named) => match named.split_once('=') {
                    Some((k, v)) => (k.to_string(), parse_value(v)),
                    None => return println!("bad binding `{arg}` (expected $name=value)"),
                },
            };
            params.push(ParamBinding { name, value });
        }
        let out = self.backend.exec(&name, &params);
        self.print(out);
    }
}

impl Local {
    /// The commands only the in-process shell has.
    fn command(&mut self, head: &str, rest: &str) {
        let user = self.session.user().to_string();
        match head {
            ".user" if rest.is_empty() => println!("current user: {user}"),
            ".user" => {
                if !self.platform.knowledge_base().is_registered(rest) {
                    match self.platform.register_user(rest) {
                        Ok(()) => println!("registered new user `{rest}`"),
                        Err(e) => return println!("error: {e}"),
                    }
                }
                match Session::new(self.platform.engine(), rest) {
                    Ok(session) => self.session = session,
                    Err(e) => return println!("error: {e}"),
                }
                // Held statements run in the new user's context from now
                // on (preparing again hits the engine's caches).
                for stmt in self.prepared.values_mut() {
                    if let Ok(again) = self.session.prepare(stmt.lang(), stmt.text()) {
                        *stmt = again;
                    }
                }
            }
            ".users" => self.platform.users().iter().for_each(|u| println!("{u}")),
            ".tables" => {
                for t in self.platform.database().catalog().table_names() {
                    println!("{t}");
                }
            }
            ".schema" => match self.platform.database().catalog().get_table(rest) {
                Ok(t) => {
                    for c in &t.schema.columns {
                        println!("{} {}", c.name, c.data_type);
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            ".assert" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 {
                    return println!("usage: .assert <subject> <property> <object>");
                }
                let object = if parts[2].chars().next().is_some_and(|c| c.is_ascii_digit())
                    || parts[2].starts_with('"')
                {
                    Term::lit(parts[2].trim_matches('"'))
                } else {
                    Term::iri(parts[2])
                };
                match self.platform.independent_annotation(
                    &user,
                    Term::iri(parts[0]),
                    Term::iri(parts[1]),
                    object,
                ) {
                    Ok(id) => println!("asserted statement #{}", id.0),
                    Err(e) => println!("error: {e}"),
                }
            }
            ".kb" => {
                let kb = self.platform.knowledge_base();
                for id in kb.statements_by(&user) {
                    match kb.statement_triple(id) {
                        Ok(t) => println!("#{}: {} {} {}", id.0, t.subject, t.predicate, t.object),
                        Err(e) => println!("#{}: <error: {e}>", id.0),
                    }
                }
            }
            ".browse" => {
                for info in self.platform.browse_peer_statements(&user) {
                    println!(
                        "#{}: {} {} {} (by {})",
                        info.id.0,
                        info.triple.subject,
                        info.triple.predicate,
                        info.triple.object,
                        info.author
                    );
                }
            }
            ".import" => match rest.parse::<u64>() {
                Ok(raw) => match self.platform.import_statement(&user, StatementId(raw)) {
                    Ok(()) => println!("imported statement #{raw}"),
                    Err(e) => println!("error: {e}"),
                },
                Err(_) => println!("usage: .import <statement-id>"),
            },
            ".stored" => match rest.split_once(char::is_whitespace) {
                Some((name, sparql)) => {
                    match self.platform.engine().stored_queries().register(name, sparql.trim()) {
                        Ok(()) => println!("registered stored query `{name}`"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                None => println!("usage: .stored <name> <sparql>"),
            },
            "\\checkpoint" => {
                let engine = self.platform.engine();
                match engine.checkpoint().and_then(|lsn| {
                    engine.checkpoint_join()?;
                    Ok(lsn)
                }) {
                    Ok(lsn) => println!("checkpoint written at LSN {lsn}"),
                    Err(e) => println!("error: {e}"),
                }
            }
            "\\wal-stats" => match self.platform.engine().wal_stats() {
                Some(s) => {
                    let age = s
                        .last_checkpoint_age
                        .map(|d| format!("{:.1} s ago", d.as_secs_f64()))
                        .unwrap_or_else(|| "never".to_string());
                    println!("last LSN:        {}", s.last_lsn);
                    println!("snapshot LSN:    {}", s.snapshot_lsn);
                    println!("log bytes:       {}", s.log_bytes);
                    println!("last checkpoint: {age}");
                    println!("sync policy:     {}", s.sync_policy);
                }
                None => {
                    println!("in-memory engine (start with --data-dir to enable the WAL)")
                }
            },
            "\\lock-stats" => {
                let stats = self.platform.engine().lock_stats();
                if stats.is_empty() {
                    return println!(
                        "no lock tracking data (needs a debug build with \
                         CROSSE_LOCK_TRACK=1; the layer compiles out of release)"
                    );
                }
                println!(
                    "{:<24} {:>12} {:>10} {:>12} {:>12}",
                    "site", "acquisitions", "contended", "total hold", "max hold"
                );
                for s in stats {
                    println!(
                        "{:<24} {:>12} {:>10} {:>10.3}ms {:>10.3}ms",
                        s.site,
                        s.acquisitions,
                        s.contended,
                        s.total_hold_ns as f64 / 1e6,
                        s.max_hold_ns as f64 / 1e6,
                    );
                }
            }
            other => println!("unknown command `{other}` (try .help)"),
        }
    }
}

fn print_report(report: &PipelineReport) {
    println!(
        "-- parse {:?} | sql {:?} | sparql {:?} | join {:?} | total {:?}",
        report.parse,
        report.sql_exec,
        report.sparql_exec,
        report.join,
        report.total()
    );
    print_legs(report);
}

/// One line per SPARQL leg, tagging how it was served: `shared` = the
/// persistent REPLACEVARIABLE pairs table (the spooled relational leg);
/// `cached` alone = SPARQL solution-cache hit; no tag = recomputed.
fn print_legs(report: &PipelineReport) {
    for run in &report.sparql_runs {
        let origin = match (run.shared, run.cached) {
            (true, _) => ", shared",
            (false, true) => ", cached",
            (false, false) => "",
        };
        println!(
            "--   leg [{}{origin}] {} solution(s): {}",
            run.purpose,
            run.solutions,
            run.sparql.replace('\n', " ")
        );
    }
}

/// Split a `\exec` argument string into whitespace-separated tokens,
/// honouring single-quoted spans: a quoted span may contain spaces, `=`,
/// `$` and doubled `''` quote escapes, and may appear anywhere in a token
/// (`$city='Basse di Stura'` is one token). Quotes are kept verbatim —
/// [`parse_value`] unwraps them — so quoted numerics still bind as
/// strings. Errors on an unterminated quote.
fn split_exec_args(rest: &str) -> std::result::Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    for c in rest.chars() {
        match c {
            '\'' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            c if c.is_whitespace() && !in_quote => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if in_quote {
        return Err(format!("unterminated quoted string in `{rest}`"));
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

/// Parse a `\exec` argument value: quoted string, integer, float,
/// boolean, NULL, or bare string.
fn parse_value(text: &str) -> Value {
    let t = text.trim();
    if let Some(stripped) = t.strip_prefix('\'') {
        // Strip exactly one closing quote, then undo `''` escapes —
        // `'abc'''` binds `abc'`.
        let inner = stripped.strip_suffix('\'').unwrap_or(stripped);
        return Value::from(inner.replace("''", "'"));
    }
    if t.eq_ignore_ascii_case("null") {
        return Value::Null;
    }
    if t.eq_ignore_ascii_case("true") {
        return Value::Bool(true);
    }
    if t.eq_ignore_ascii_case("false") {
        return Value::Bool(false);
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return Value::Float(f);
    }
    Value::from(t)
}
