//! Running one workload: set-up, the verified warm-up round, the timed or
//! traced client loops, and the durability check that ends `live-mix`.
//!
//! Every layer is measured from outside — by timing calls into public
//! functions and reading the public data they return.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crosse_core::parse_sesql;
use crosse_core::sqm::{PipelineReport, SesqlEngine};
use crosse_core::WalOptions;
use crosse_rdf::provenance::{user_graph, StatementId};
use crosse_rdf::store::Triple;
use crosse_relational::{ExecOutcome, OptimizerConfig, Params, Row, Value};
use crosse_server::{Client, Lang, QueryOutcome, Server, ServerConfig, ServerHandle};
use crosse_smartground::{standard_engine, standard_engine_at_with, SmartGroundConfig};

use crate::digest::{digest, Digest};
use crate::layers::{CacheSnap, Layers};
use crate::ops::{
    catalog, readback_sql, Op, OpGen, OpKind, Stmt, Workload, FIRST_BENCH_ID, INSERT_ROWS,
    LIVE_CROWD_STATEMENTS, READBACK_BATCHES, USER,
};
use crate::stats;
use crate::trace::Trace;

/// Measured rounds of an untraced run. `qps` and the latency percentiles
/// are medians over the rounds, so a burst of host noise that spoils a few
/// rounds does not move them.
const ROUNDS: usize = 10;
/// Results up to this size are digested on every operation; larger ones
/// are checked by row count in the loop and by digest in the warm-up
/// round, so the check never becomes the work being timed.
const DIGEST_LIMIT: usize = 512;
/// Where the run keeps its files (inside the checkout; git-ignored).
pub const WORK_DIR: &str = "target/crossebench";

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// What one run reports: the contract's counts and metrics, plus
/// diagnostics that are printed but not gated.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }
}

/// Golden digests: `key rows sum` per line, for the fixed databank.
pub struct Golden(BTreeMap<String, Digest>);

impl Golden {
    pub fn parse(text: &str) -> Golden {
        let entries = text.lines().filter_map(|line| {
            let mut it = line.split_whitespace();
            let (key, rows, sum) = (it.next()?, it.next()?, it.next()?);
            let d = Digest {
                rows: rows.parse().ok()?,
                sum: u64::from_str_radix(sum, 16).ok()?,
            };
            Some((key.to_string(), d))
        });
        Golden(entries.collect())
    }

    pub fn embedded() -> Golden {
        Golden::parse(include_str!("../golden/digests.txt"))
    }
}

/// A built system: engine, plus the server or data directory the workload
/// needs.
struct Fixture {
    workload: Workload,
    engine: SesqlEngine,
    server: Option<ServerHandle>,
    dir: Option<PathBuf>,
}

fn databank(workload: Workload) -> SmartGroundConfig {
    SmartGroundConfig::default().with_landfills(workload.landfills())
}

impl Fixture {
    fn build(workload: Workload) -> Result<Fixture, String> {
        let cfg = databank(workload);
        let (engine, server, dir) = match workload {
            Workload::LiveMix => {
                // Unique per set-up, also across the threads of a test run.
                static BUILT: AtomicU64 = AtomicU64::new(0);
                let n = BUILT.fetch_add(1, Ordering::Relaxed);
                let dir =
                    PathBuf::from(WORK_DIR).join(format!("live-mix-{}-{n}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                let engine = standard_engine_at_with(&cfg, USER, &dir, WalOptions::default())
                    .map_err(|e| e.to_string())?;
                (engine, None, Some(dir))
            }
            Workload::WireScan => {
                let engine = standard_engine(&cfg, USER).map_err(|e| e.to_string())?;
                let server = Server::start(engine.clone(), ServerConfig::default())
                    .map_err(|e| e.to_string())?;
                (engine, Some(server), None)
            }
            _ => (
                standard_engine(&cfg, USER).map_err(|e| e.to_string())?,
                None,
                None,
            ),
        };
        for (table, column) in workload.indexes() {
            engine
                .database()
                .execute(&format!(
                    "CREATE INDEX IF NOT EXISTS cb_{table}_{column} ON {table} ({column})"
                ))
                .map_err(|e| e.to_string())?;
        }
        Ok(Fixture {
            workload,
            engine,
            server,
            dir,
        })
    }

    /// One client's handle on the system under test.
    fn target(&self) -> Result<Target, String> {
        let client = match &self.server {
            Some(server) => {
                let mut c = Client::connect(server.addr()).map_err(|e| e.to_string())?;
                c.hello(USER).map_err(|e| e.to_string())?;
                Some(c)
            }
            None => None,
        };
        Ok(Target {
            engine: self.engine.clone(),
            client,
            via_prepare: self.workload == Workload::LiveMix,
        })
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.as_mut() {
            server.shutdown();
        }
        let dir = self.dir.take();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// How a client reaches the system: `SesqlEngine::execute`, the
/// prepare-then-execute path a served session takes (`live-mix`), or a
/// CROSNET1 connection (`wire-scan`).
struct Target {
    engine: SesqlEngine,
    client: Option<Client>,
    via_prepare: bool,
}

struct QueryOut {
    rows: Vec<Row>,
    report: Option<PipelineReport>,
    /// `(rows_scanned, server elapsed µs)` of a wire reply.
    wire: Option<(u64, u64)>,
}

impl Target {
    fn query(&mut self, text: &str) -> Result<QueryOut, String> {
        if let Some(client) = self.client.as_mut() {
            let reply = client
                .query(Lang::Sql, text, 0)
                .map_err(|e| e.to_string())?;
            return match reply.outcome {
                QueryOutcome::Done {
                    rows_scanned,
                    elapsed_us,
                    ..
                } => Ok(QueryOut {
                    rows: reply.rows,
                    report: None,
                    wire: Some((rows_scanned, elapsed_us)),
                }),
                QueryOutcome::Error { code, message } => Err(format!("{code:?}: {message}")),
            };
        }
        let result = if self.via_prepare {
            self.engine
                .prepare(text)
                .and_then(|p| p.execute(USER, &Params::new()))
        } else {
            self.engine.execute(USER, text)
        };
        let result = result.map_err(|e| e.to_string())?;
        Ok(QueryOut {
            rows: result.rows.rows,
            report: Some(result.report),
            wire: None,
        })
    }

    fn close(mut self) {
        if let Some(client) = self.client.as_mut() {
            let _ = client.close();
        }
    }
}

/// Read-only state every client of a run shares.
struct Ctx<'a> {
    workload: Workload,
    catalog: &'a [Stmt],
    /// The verified digest of each statement in use, by catalog slot.
    expected: &'a [Option<Digest>],
}

/// The benchmark's writes against one engine, and what must be readable
/// there now. Writes retire what they supersede — an insert deletes the
/// batch that falls out of the read-back window, an assert retracts the
/// crowd statement that falls out of the live set — so table, personal
/// graph and memory stay level however many operations a run completes.
#[derive(Debug, Default)]
struct Writer {
    /// Live crowd statements, oldest first.
    asserts: VecDeque<(StatementId, Triple)>,
    /// Live insert batches, oldest first: `(first id, SUM(year))`.
    batches: VecDeque<(i64, i64)>,
    /// Bytes the user handed over: INSERT texts and triple terms.
    user_bytes: u64,
}

impl Writer {
    fn assert(&mut self, engine: &SesqlEngine, triple: &Triple) -> bool {
        let kb = engine.knowledge_base();
        let Ok(id) = kb.assert_statement(USER, triple) else {
            return false;
        };
        self.user_bytes += [&triple.subject, &triple.predicate, &triple.object]
            .map(|t| t.lexical_form().len() as u64)
            .iter()
            .sum::<u64>();
        self.asserts.push_back((id, triple.clone()));
        if self.asserts.len() > LIVE_CROWD_STATEMENTS {
            if let Some((old, _)) = self.asserts.pop_front() {
                return kb.retract(USER, old).is_ok();
            }
        }
        true
    }

    fn insert(&mut self, engine: &SesqlEngine, sql: &str, first_id: i64, year_sum: i64) -> bool {
        let db = engine.database();
        if !matches!(db.execute(sql), Ok(ExecOutcome::Affected(n)) if n == INSERT_ROWS) {
            return false;
        }
        self.user_bytes += sql.len() as u64;
        self.batches.push_back((first_id, year_sum));
        if self.batches.len() > READBACK_BATCHES {
            if let Some((old, _)) = self.batches.pop_front() {
                let retire = format!(
                    "DELETE FROM analysis WHERE id >= {old} AND id < {}",
                    old + INSERT_ROWS as i64
                );
                return matches!(db.execute(&retire), Ok(ExecOutcome::Affected(n)) if n == INSERT_ROWS);
            }
        }
        true
    }

    /// Apply a write operation to `engine` (anything else is not a write
    /// and trivially succeeds).
    fn write(&mut self, engine: &SesqlEngine, op: &Op) -> bool {
        match op {
            Op::Assert(triple) => self.assert(engine, triple),
            Op::Insert {
                sql,
                first_id,
                year_sum,
            } => self.insert(engine, sql, *first_id, *year_sum),
            Op::Query(_) | Op::Readback => true,
        }
    }

    /// What a read-back must return: `(first live id, COUNT(*), SUM(year))`.
    fn window(&self) -> (i64, i64, i64) {
        let from_id = self.batches.front().map_or(FIRST_BENCH_ID, |b| b.0);
        let rows = (self.batches.len() * INSERT_ROWS) as i64;
        (from_id, rows, self.batches.iter().map(|b| b.1).sum())
    }
}

/// Attempted / failed per op type, and latency samples of operations that
/// succeeded as `(op type, round, ns)`.
#[derive(Debug, Default)]
struct Tally {
    attempted: [u64; 4],
    failed: [u64; 4],
    samples: Vec<(OpKind, u8, u64)>,
}

impl Tally {
    /// Count one operation; `sample` is its latency and round when this
    /// operation is one whose latency is kept.
    fn record(&mut self, kind: OpKind, ok: bool, sample: Option<(Duration, usize)>) {
        self.attempted[kind as usize] += 1;
        match sample {
            _ if !ok => self.failed[kind as usize] += 1,
            Some((lat, round)) => self
                .samples
                .push((kind, round as u8, lat.as_nanos() as u64)),
            None => {}
        }
    }

    fn merge(&mut self, other: Tally) {
        for k in 0..4 {
            self.attempted[k] += other.attempted[k];
            self.failed[k] += other.failed[k];
        }
        self.samples.extend(other.samples);
    }

    /// Sorted latencies in ms of the samples `keep` selects.
    fn ms(&self, keep: impl Fn(OpKind, u8) -> bool) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|(kind, round, _)| keep(*kind, *round))
            .map(|(_, _, ns)| *ns as f64 / 1e6)
            .collect();
        stats::sort(&mut ms);
        ms
    }

    /// Latency percentile in ms: the median over the rounds of each
    /// round's percentile when every round has the samples to support it,
    /// otherwise the percentile of the pooled samples.
    fn percentile_ms(&self, p: f64) -> f64 {
        let last = self.samples.iter().map(|s| s.1).max().unwrap_or(0);
        let rounds: Vec<Vec<f64>> = (0..=last)
            .map(|r| self.ms(|_, round| round == r))
            .filter(|r| !r.is_empty())
            .collect();
        if rounds.len() > 1 && rounds.iter().all(|r| stats::supports(r.len(), p)) {
            let per_round: Vec<f64> = rounds.iter().map(|r| stats::percentile(r, p)).collect();
            stats::median(&per_round)
        } else {
            stats::percentile(&self.ms(|_, _| true), p)
        }
    }
}

fn matches(expected: Option<Digest>, rows: &[Row]) -> bool {
    expected.is_some_and(|d| {
        rows.len() as u64 == d.rows && (rows.len() > DIGEST_LIMIT || digest(rows) == d)
    })
}

struct Applied {
    ok: bool,
    start: Instant,
    end: Instant,
    out: Option<QueryOut>,
}

/// Run one operation against the system and check what came back. Only
/// the call into the system sits between `start` and `end`.
fn apply(target: &mut Target, ctx: &Ctx, model: &mut Writer, op: &Op) -> Applied {
    let start = Instant::now();
    let (ok, end, out) = match op {
        Op::Query(slot) => {
            let res = target.query(&ctx.catalog[*slot].text);
            let end = Instant::now();
            match res {
                Ok(out) => (matches(ctx.expected[*slot], &out.rows), end, Some(out)),
                Err(e) => {
                    eprintln!("crossebench: {} failed: {e}", ctx.catalog[*slot].key);
                    (false, end, None)
                }
            }
        }
        Op::Assert(_) | Op::Insert { .. } => {
            let ok = model.write(&target.engine, op);
            (ok, Instant::now(), None)
        }
        Op::Readback => {
            let (from_id, rows, year_sum) = model.window();
            let res = target.engine.database().query(&readback_sql(from_id));
            let end = Instant::now();
            (
                res.is_ok_and(|rs| readback_matches(&rs.rows, rows, year_sum)),
                end,
                None,
            )
        }
    };
    Applied {
        ok,
        start,
        end,
        out,
    }
}

fn readback_matches(found: &[Row], rows: i64, year_sum: i64) -> bool {
    matches!(found, [row] if *row == vec![Value::Int(rows), Value::Int(year_sum)])
}

/// Closed loop for `rounds × round_len`: the next operation is sent when
/// the previous one has been answered and checked. Returns the verified
/// operations per second of each round; a round owns the operations that
/// ended in it, and its clock runs from the end of the previous round's
/// last operation, so no time falls between rounds.
fn timed_loop(
    target: &mut Target,
    gen: &mut OpGen,
    ctx: &Ctx,
    start: Instant,
    round_len: Duration,
) -> (Tally, Writer, Vec<f64>) {
    let (mut tally, mut model, mut round_qps) = (Tally::default(), Writer::default(), Vec::new());
    let (mut round, mut round_start, mut verified) = (0usize, start, 0u64);
    let stride = ctx.workload.latency_stride();
    for i in 0u64.. {
        let op = gen.next_op();
        let a = apply(target, ctx, &mut model, &op);
        let sample = (i % stride == 0).then_some((a.end - a.start, round));
        tally.record(op.kind(), a.ok, sample);
        verified += u64::from(a.ok);
        let now_round = ((a.end - start).as_secs_f64() / round_len.as_secs_f64()) as usize;
        if now_round > round {
            round_qps.push(verified as f64 / (a.end - round_start).as_secs_f64());
            (round, round_start, verified) = (now_round, a.end, 0);
            if round >= ROUNDS {
                break;
            }
        }
    }
    (tally, model, round_qps)
}

/// A fixed number of operations with spans kept in memory: a root span per
/// operation, a child around the call into the system, children
/// synthesised from the returned stage durations, and sibling probe spans
/// around direct calls into each layer's public function for the same
/// input.
///
/// The first `untraced` operations of the same stream run without spans or
/// probes; their query latencies are the base of `trace.overhead_ratio`.
fn traced_loop(
    target: &mut Target,
    gen: &mut OpGen,
    ctx: &Ctx,
    (untraced, ops): (u64, u64),
    epoch: Instant,
    twin: Option<&SesqlEngine>,
) -> (Tally, Writer, Trace, Layers) {
    let (mut tally, mut model) = (Tally::default(), Writer::default());
    let mut twin_model = Writer::default();
    let (mut trace, mut layers) = (Trace::new(epoch), Layers::default());
    let ns = |t: Instant| (t - epoch).as_nanos() as u64;
    for _ in 0..untraced {
        let op = gen.next_op();
        let a = apply(target, ctx, &mut model, &op);
        tally.record(op.kind(), a.ok, Some((a.end - a.start, 0)));
        if op.kind() == OpKind::Query {
            layers
                .untraced_query_us
                .push((a.end - a.start).as_nanos() as f64 / 1e3);
        }
        // The twin takes the same writes, so both engines hold the same
        // data when the traced slice compares them.
        if let Some(twin) = twin {
            twin_model.write(twin, &op);
        }
    }
    for i in 0..ops {
        let op = gen.next_op();
        let root = trace.add("op", i, None, trace.now_ns(), 0);
        let a = apply(target, ctx, &mut model, &op);
        tally.record(op.kind(), a.ok, Some((a.end - a.start, 0)));
        let (s, e) = (ns(a.start), ns(a.end));
        let call_us = (e - s) as f64 / 1e3;
        match &op {
            Op::Query(slot) => {
                let wire = a.out.as_ref().is_some_and(|o| o.wire.is_some());
                let name = if wire {
                    "srv.client_query"
                } else {
                    "sqm.execute"
                };
                let call = trace.add(name, i, Some(root), s, e);
                if let Some(out) = &a.out {
                    if let Some(report) = &out.report {
                        trace.add_stages(i, call, s, &Layers::stages(report));
                        layers.record_report(e - s, report);
                    }
                    if let Some((scanned, server_us)) = out.wire {
                        trace.add_stages(i, call, s, &[("srv.execute", server_us * 1_000)]);
                        layers.record_wire(call_us, scanned, out.rows.len() as u64);
                    }
                    if i % ctx.workload.probe_stride() == 0 {
                        probe(
                            &mut trace,
                            &mut layers,
                            target,
                            &ctx.catalog[*slot],
                            out,
                            i,
                            root,
                            e - s,
                        );
                    }
                }
            }
            Op::Assert(_) | Op::Insert { .. } => {
                let is_assert = op.kind() == OpKind::Assert;
                let (name, twin_name) = if is_assert {
                    ("rdf.assert", "probe.twin.assert")
                } else {
                    ("rel.insert", "probe.twin.insert")
                };
                trace.add(name, i, Some(root), s, e);
                layers.write_us.push(call_us);
                if is_assert {
                    layers.assert_us.push(call_us);
                } else {
                    layers.insert_ns += e - s;
                    layers.insert_rows += INSERT_ROWS as u64;
                }
                if let Some(twin) = twin {
                    let (_, idx) =
                        trace.time(twin_name, i, Some(root), || twin_model.write(twin, &op));
                    layers.twin_write_us.push(span_us(&trace, idx));
                }
            }
            Op::Readback => {
                trace.add("rel.readback", i, Some(root), s, e);
            }
        }
        trace.close(root);
    }
    (tally, model, trace, layers)
}

fn span_us(trace: &Trace, idx: usize) -> f64 {
    (trace.spans[idx].end_ns - trace.spans[idx].start_ns) as f64 / 1e3
}

/// Direct calls into each layer's public function for the input one query
/// just ran: `parse_sesql`, a `Database` cursor over the plain SQL, and
/// `KnowledgeBase::query_as` over each generated SPARQL leg.
#[allow(clippy::too_many_arguments)]
fn probe(
    trace: &mut Trace,
    layers: &mut Layers,
    target: &Target,
    stmt: &Stmt,
    out: &QueryOut,
    op_id: u64,
    root: usize,
    call_ns: u64,
) {
    if out.report.is_some() {
        let (_, idx) = trace.time("probe.sesql.parse", op_id, Some(root), || {
            parse_sesql(&stmt.text).is_ok()
        });
        layers.parse_us.push(span_us(trace, idx));
    }
    let db = target.engine.database();
    let (counts, idx) = trace.time("probe.rel.direct_query", op_id, Some(root), || {
        let mut cursor = db.query_cursor(&stmt.baseline_sql).ok()?;
        let mut rows = 0u64;
        while let Some(row) = cursor.next_row() {
            std::hint::black_box(row.ok()?);
            rows += 1;
        }
        Some((cursor.rows_scanned(), rows))
    });
    let direct_ns = trace.spans[idx].end_ns - trace.spans[idx].start_ns;
    layers.direct_query_us.push(direct_ns as f64 / 1e3);
    layers.probed_call_ns += call_ns;
    layers.probed_direct_ns += direct_ns;
    if let (Some((scanned, rows)), true) = (counts, out.report.is_some()) {
        layers.rows_scanned += scanned;
        layers.rows_out += rows;
    }
    for run in out.report.iter().flat_map(|r| &r.sparql_runs) {
        let kb = target.engine.knowledge_base();
        let (_, idx) = trace.time("probe.rdf.query_as", op_id, Some(root), || {
            kb.query_as(USER, &run.sparql).map(|s| s.len()).ok()
        });
        layers.rdf_direct_us.push(span_us(trace, idx));
    }
}

/// The warm-up round: every statement the stream can draw, once, through
/// the workload's own path. Fills the caches and yields the answers the
/// verification compares.
fn warm(fx: &Fixture, catalog: &[Stmt], in_use: &[usize]) -> Result<Vec<(usize, Digest)>, String> {
    let mut target = fx.target()?;
    let digests = in_use
        .iter()
        .map(|&slot| {
            let out = target
                .query(&catalog[slot].text)
                .map_err(|e| format!("warm-up of {} failed: {e}", catalog[slot].key))?;
            Ok((slot, digest(&out.rows)))
        })
        .collect::<Result<Vec<_>, String>>();
    target.close();
    digests
}

/// The answer the reference path gives: caches cleared and every
/// optimizer pass off, in process (so `wire-scan` is also checked against
/// a direct `Database::query`).
fn reference_digest(
    engine: &SesqlEngine,
    workload: Workload,
    stmt: &Stmt,
) -> Result<Digest, String> {
    let rows = match workload {
        Workload::WireScan => engine
            .database()
            .query(&stmt.text)
            .map(|rs| rs.rows)
            .map_err(|e| e.to_string()),
        _ => engine
            .execute(USER, &stmt.text)
            .map(|r| r.rows.rows)
            .map_err(|e| e.to_string()),
    };
    rows.map(|r| digest(&r))
        .map_err(|e| format!("reference run of {} failed: {e}", stmt.key))
}

fn with_reference_config<T>(engine: &SesqlEngine, f: impl FnOnce() -> T) -> T {
    engine
        .database()
        .set_optimizer_config(OptimizerConfig::none());
    engine.clear_cache();
    let out = f();
    engine
        .database()
        .set_optimizer_config(OptimizerConfig::default());
    engine.clear_cache();
    out
}

/// Compare each warm-up answer (a) differentially with the reference path
/// and (b) with the golden digest. Returns the expected table and the
/// number of statements that disagreed.
fn verify(
    fx: &Fixture,
    catalog: &[Stmt],
    warm: &[(usize, Digest)],
    golden: &Golden,
) -> Result<(Vec<Option<Digest>>, u64), String> {
    let mut expected = vec![None; catalog.len()];
    let mut wrong = 0;
    with_reference_config(&fx.engine, || {
        for &(slot, got) in warm {
            let stmt = &catalog[slot];
            let reference = reference_digest(&fx.engine, fx.workload, stmt)?;
            let gold = golden.0.get(&stmt.key).copied();
            if got != reference || Some(got) != gold {
                wrong += 1;
                eprintln!(
                    "crossebench: {} answered {got:?}, reference {reference:?}, golden {gold:?}",
                    stmt.key
                );
            }
            // The golden digest is what every timed operation must match.
            expected[slot] = gold.or(Some(reference));
        }
        Ok::<(), String>(())
    })?;
    Ok((expected, wrong))
}

/// Regenerate the golden file's contents from the reference path.
pub fn bless() -> Result<String, String> {
    let mut out = String::new();
    for workload in [Workload::EnrichPoint, Workload::WireScan] {
        let fx = Fixture::build(workload)?;
        let lines = with_reference_config(&fx.engine, || {
            catalog(workload)
                .iter()
                .map(|stmt| {
                    let d = reference_digest(&fx.engine, workload, stmt)?;
                    Ok(format!("{} {} {:016x}\n", stmt.key, d.rows, d.sum))
                })
                .collect::<Result<String, String>>()
        });
        fx.teardown();
        out.push_str(&lines?);
    }
    Ok(out)
}

/// Run `n` clients, each on its own thread; results come back through
/// `join`.
fn run_clients<T: Send>(
    fx: &Fixture,
    f: impl Fn(usize, &mut Target) -> T + Sync,
) -> Result<Vec<T>, String> {
    let targets: Vec<Target> = (0..fx.workload.clients())
        .map(|_| fx.target())
        .collect::<Result<_, _>>()?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .into_iter()
            .enumerate()
            .map(|(c, mut target)| {
                let f = &f;
                scope.spawn(move || {
                    let out = f(c, &mut target);
                    target.close();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect()
    })
}

/// `live-mix`'s ending: timed checkpoint, drop, timed reopen, then every
/// acknowledged row and triple must be readable. Returns
/// `(checks, missing, checkpoint_s, recovery_s)`.
fn reopen_and_check(fx: Fixture, model: &Writer) -> Result<(Fixture, u64, u64, f64, f64), String> {
    let Fixture {
        workload,
        engine,
        server,
        dir,
    } = fx;
    let path = dir.clone().ok_or("live-mix keeps a data directory")?;
    let t = Instant::now();
    engine.checkpoint().map_err(|e| e.to_string())?;
    engine.checkpoint_join().map_err(|e| e.to_string())?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    // The last handle on the old engine goes before the log reopens.
    drop(engine);
    let t = Instant::now();
    let engine = standard_engine_at_with(&databank(workload), USER, &path, WalOptions::default())
        .map_err(|e| e.to_string())?;
    let recovery_s = t.elapsed().as_secs_f64();
    let fx = Fixture {
        workload,
        engine,
        server,
        dir,
    };

    let store = fx.engine.knowledge_base().store();
    let graph = user_graph(USER);
    let mut missing = model
        .asserts
        .iter()
        .filter(|(_, t)| !store.contains(&graph, t))
        .count() as u64;
    let (from_id, rows, year_sum) = model.window();
    let found = fx
        .engine
        .database()
        .query(&readback_sql(from_id))
        .map_err(|e| e.to_string())?;
    if rows > 0 && !readback_matches(&found.rows, rows, year_sum) {
        eprintln!(
            "crossebench: after reopen the read-back gives {:?}",
            found.rows
        );
        let live = match found.rows.first().and_then(|r| r.first()) {
            Some(Value::Int(n)) => *n,
            _ => 0,
        };
        missing += (rows - live).unsigned_abs().max(1);
    }
    let checks = (model.asserts.len() + model.batches.len()) as u64;
    Ok((fx, checks, missing, checkpoint_s, recovery_s))
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(cfg: &RunConfig, golden: &Golden) -> Result<RunResult, String> {
    let workload = cfg.workload;
    let catalog = catalog(workload);
    let in_use = OpGen::new(workload, cfg.seed, 0).statements_in_use();
    let mut result = RunResult::default();

    // Set-up, several times over; the last one built is the one measured.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_reps.max(1) {
        if let Some((fx, _)) = built.take() {
            Fixture::teardown(fx);
        }
        let t = Instant::now();
        let fx = Fixture::build(workload)?;
        let warmed = warm(&fx, &catalog, &in_use)?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((fx, warmed));
    }
    let (mut fx, warmed) = built.ok_or("no set-up ran")?;

    let (expected, wrong) = verify(&fx, &catalog, &warmed, golden)?;
    result.attempted += warmed.len() as u64;
    result.failed += wrong;
    // Verification emptied the caches; fill them again before timing.
    warm(&fx, &catalog, &in_use)?;

    let ctx = Ctx {
        workload,
        catalog: &catalog,
        expected: &expected,
    };
    let caches_before = CacheSnap::take(&fx.engine);
    let wal_before = fx.engine.wal_stats();
    let server_before = fx.server.as_ref().map(|s| s.stats());
    let mut tally = Tally::default();
    let mut model = Writer::default();

    let traced = if cfg.trace {
        let clients = workload.clients() as u64;
        let ops =
            ((cfg.seconds * workload.traced_ops_per_second() as f64) as u64).max(16) / clients;
        let twin = match workload {
            Workload::LiveMix => {
                Some(standard_engine(&databank(workload), USER).map_err(|e| e.to_string())?)
            }
            _ => None,
        };
        let epoch = Instant::now();
        let runs = run_clients(&fx, |c, target| {
            let mut gen = OpGen::new(workload, cfg.seed, c);
            traced_loop(target, &mut gen, &ctx, (ops / 4, ops), epoch, twin.as_ref())
        })?;
        let (mut trace, mut layers) = (Trace::new(epoch), Layers::default());
        for (t, m, tr, l) in runs {
            tally.merge(t);
            model = m;
            trace.merge(tr);
            layers.merge(l);
        }
        Some((trace, layers))
    } else {
        let round_len = Duration::from_secs_f64(cfg.seconds / ROUNDS as f64);
        let start = Instant::now();
        let runs = run_clients(&fx, |c, target| {
            let mut gen = OpGen::new(workload, cfg.seed, c);
            timed_loop(target, &mut gen, &ctx, start, round_len)
        })?;
        // Each round's rate is the sum of the clients' rates in it.
        let mut round_qps = vec![0.0; ROUNDS];
        for (t, m, rounds) in runs {
            tally.merge(t);
            model = m;
            round_qps.truncate(rounds.len());
            for (sum, r) in round_qps.iter_mut().zip(rounds) {
                *sum += r;
            }
        }
        result.metric("qps", stats::median(&round_qps));
        let (q1, q3) = stats::quartiles(&round_qps);
        result.note("qps.round_q1", q1, "ops/s");
        result.note("qps.round_q3", q3, "ops/s");
        result.note("qps.round_spread", stats::spread(&round_qps), "ratio");
        None
    };

    let caches_after = CacheSnap::take(&fx.engine);
    let wal_after = fx.engine.wal_stats();
    let server_after = fx.server.as_ref().map(|s| s.stats());
    let exec_threads = fx.engine.exec_threads();
    let triples = fx.engine.knowledge_base().store().len();

    let mut wal_times = (0.0, 0.0);
    if workload == Workload::LiveMix {
        let (reopened, checks, missing, checkpoint_s, recovery_s) = reopen_and_check(fx, &model)?;
        fx = reopened;
        result.attempted += checks;
        result.failed += missing;
        wal_times = (checkpoint_s, recovery_s);
    }

    result.attempted += tally.attempted.iter().sum::<u64>();
    result.failed += tally.failed.iter().sum::<u64>();
    for kind in OpKind::ALL {
        let (k, name) = (kind as usize, kind.name());
        if tally.attempted[k] > 0 {
            result.note(
                format!("{name}.attempted"),
                tally.attempted[k] as f64,
                "count",
            );
            result.note(format!("{name}.failed"), tally.failed[k] as f64, "count");
            let ms = tally.ms(|sample_kind, _| sample_kind == kind);
            if !ms.is_empty() {
                result.note(format!("{name}.p50_ms"), stats::percentile(&ms, 0.5), "ms");
            }
        }
    }

    match traced {
        Some((trace, mut layers)) => {
            if workload == Workload::WireScan {
                layers.scan_speedup = scan_speedup(&fx.engine, &catalog, &mut result.notes);
            }
            layers.caches = caches_after.since(&caches_before);
            if let (Some(before), Some(after)) = (wal_before, wal_after) {
                layers.wal_records = after.last_lsn - before.last_lsn;
                layers.wal_bytes = after.log_bytes.saturating_sub(before.log_bytes);
            }
            layers.user_bytes = model.user_bytes;
            (layers.wal_checkpoint_s, layers.wal_recovery_s) = wal_times;
            if let (Some(before), Some(after)) = (server_before, server_after) {
                layers.record_server(&before, &after);
            }
            layers.exec_threads = exec_threads;
            layers.triples = triples;
            layers.spans = trace.spans.len();
            std::fs::create_dir_all(WORK_DIR).map_err(|e| e.to_string())?;
            let path = format!("{WORK_DIR}/trace-{}.json", workload.name());
            std::fs::write(&path, trace.to_json(workload.name())).map_err(|e| e.to_string())?;
            for (name, ns) in trace.self_time_by_name() {
                result.note(format!("self.{name}"), ns as f64 / 1e6, "ms");
            }
            result.metrics.extend(layers.metrics());
        }
        None => {
            let samples = tally.samples.len();
            if samples == 0 {
                return Err("no operation succeeded".into());
            }
            let tail = stats::supported_tail(samples, 0.95);
            if tail < 0.95 {
                eprintln!(
                    "crossebench: {samples} samples support p{:.0} only; p95_ms reports that",
                    tail * 100.0
                );
            }
            result.metric("p50_ms", tally.percentile_ms(0.5));
            result.metric("p95_ms", tally.percentile_ms(tail));
            result.note("latency.samples", samples as f64, "count");
            if stats::supports(samples, 0.99) {
                result.note("p99_ms", tally.percentile_ms(0.99), "ms");
            }
            result.metric("setup_s", stats::median(&setups));
            result.note("setup.reps", setups.len() as f64, "count");
            result.note("wal.checkpoint_s", wal_times.0, "s");
            result.note("wal.recovery_s", wal_times.1, "s");
        }
    }

    fx.teardown();
    if !cfg.trace {
        result.metric("peak_rss_mb", peak_rss_mib());
    }
    Ok(result)
}

/// `exec.scan_speedup`: the scan mix run directly on the `Database` at
/// one worker thread per core over the same at one thread.
fn scan_speedup(
    engine: &SesqlEngine,
    catalog: &[Stmt],
    notes: &mut Vec<(String, f64, &'static str)>,
) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut qps_at = |threads: usize| {
        engine.set_exec_threads(threads);
        let t = Instant::now();
        let mut done = 0u32;
        for _ in 0..2 {
            for stmt in catalog {
                done += u32::from(engine.database().query(&stmt.text).is_ok());
            }
        }
        let qps = f64::from(done) / t.elapsed().as_secs_f64();
        notes.push((format!("exec.direct_qps.threads{threads}"), qps, "ops/s"));
        qps
    };
    let base = qps_at(1);
    let speedup = if cores > 1 { qps_at(cores) / base } else { 1.0 };
    engine.set_exec_threads(1);
    speedup
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed: 42,
            seconds: 0.4,
            trace,
            setup_reps: 1,
        }
    }

    /// Every workload end to end at smoke size, untraced and traced: the
    /// contract's metrics are all there, nothing fails, and the issue's
    /// predictions about bypassed layers hold.
    #[test]
    fn smoke_runs_every_workload() {
        let golden = Golden::embedded();
        let e2e: Vec<String> = crate::spec::end_to_end()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let per_layer: Vec<String> = crate::spec::per_layer()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for workload in Workload::ALL {
            let r = run(&smoke(workload, false), &golden).expect("untraced run");
            assert_eq!(r.failed, 0, "{}", workload.name());
            let names: Vec<String> = r.metrics.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(names, e2e, "{}", workload.name());
            assert!(r.metrics.iter().all(|(_, v)| *v > 0.0), "{:?}", r.metrics);

            let t = run(&smoke(workload, true), &golden).expect("traced run");
            assert_eq!(t.failed, 0, "{}", workload.name());
            let names: Vec<String> = t.metrics.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(names, per_layer, "{}", workload.name());
            let get = |name: &str| t.metrics.iter().find(|(n, _)| n == name).expect(name).1;
            match workload {
                Workload::EnrichPoint => {
                    assert_eq!(get("sqm.sparql_evals"), 0.0);
                    assert_eq!(get("cache.leg.evictions"), 0.0);
                    assert_eq!(get("wal.records"), 0.0);
                }
                Workload::EnrichJoin => {
                    assert_eq!(get("sqm.pairs_hit_ratio"), 1.0);
                    assert_eq!(get("wal.records"), 0.0);
                }
                Workload::LiveMix => {
                    assert!(get("wal.records") > 0.0);
                    assert!(get("sqm.sparql_evals") > 0.0);
                    assert!(get("rdf.assert_us") > 0.0);
                }
                Workload::WireScan => {
                    for name in [
                        "sqm.sparql_evals",
                        "sqm.self_us",
                        "rdf.sparql_leg_us",
                        "fed.join_us",
                        "wal.records",
                    ] {
                        assert_eq!(get(name), 0.0, "{name}");
                    }
                    assert!(get("srv.completed") > 0.0);
                    assert_eq!(get("srv.shed"), 0.0);
                }
            }
        }
    }

    /// A wrong golden digest must fail the run, not pass quietly.
    #[test]
    fn sabotaged_golden_digest_fails_the_run() {
        let text = include_str!("../golden/digests.txt");
        let line = text
            .lines()
            .find(|l| l.starts_with("ex4.6 "))
            .expect("ex4.6 is golden");
        let mut parts: Vec<String> = line.split(' ').map(String::from).collect();
        parts[2] = format!(
            "{:016x}",
            u64::from_str_radix(&parts[2], 16).expect("hex") ^ 1
        );
        let golden = Golden::parse(&text.replace(line, &parts.join(" ")));
        let r = run(&smoke(Workload::EnrichJoin, false), &golden).expect("run completes");
        assert!(r.failed >= 1, "the sabotaged digest went unnoticed");
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let golden = Golden::embedded();
        let counts = |r: &RunResult| -> Vec<(String, f64)> {
            r.metrics
                .iter()
                .filter(|(n, _)| {
                    n.starts_with("cache.") || n.ends_with("_evals") || n == "wal.records"
                })
                .cloned()
                .collect()
        };
        let a = run(&smoke(Workload::LiveMix, true), &golden).expect("first run");
        let b = run(&smoke(Workload::LiveMix, true), &golden).expect("second run");
        assert_eq!(counts(&a), counts(&b));
    }
}
