//! Network-server robustness tests: frame-decoder totality, admission
//! control under overload, query deadlines and cooperative cancellation,
//! and slot reclamation on client disconnect.
//!
//! These run an in-process [`Server`] over a real TCP loopback socket —
//! the same code path as `crosse-cli --serve`, without process spawning.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use crosse::exec::{CancelToken, Interrupt};
use crosse::relational::{Error as RelError, Params, Value};
use crosse::server::{
    Client, ErrorCode, Lang, ParamBinding, ProtocolError, QueryOutcome, Request, Response, Server,
    ServerConfig, ServerHandle, MAGIC,
};
use crosse::smartground::{standard_engine, SmartGroundConfig};

/// Rows in the `big` table; `big a, big b` is `SLOW_N`² pending join rows,
/// slow enough in a debug build to hold an execution slot for a while.
const SLOW_N: usize = 1200;

/// A cross join sized to run for at least hundreds of milliseconds.
const SLOW_QUERY: &str = "SELECT COUNT(*) AS n FROM big a, big b";

fn test_engine() -> crosse::core::sqm::SesqlEngine {
    let engine = standard_engine(&SmartGroundConfig::tiny(), "director")
        .expect("build tiny databank");
    let db = engine.database();
    db.execute("CREATE TABLE big (x INT)").expect("create big");
    let values: Vec<String> = (0..SLOW_N).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", values.join(",")))
        .expect("fill big");
    engine
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(test_engine(), config).expect("start server")
}

fn connect(handle: &ServerHandle) -> Client {
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.hello("director").expect("hello");
    c
}

fn stat(handle: &ServerHandle, key: &str) -> u64 {
    handle
        .stats()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing stat {key}"))
}

// ---- decoder totality -------------------------------------------------------

proptest! {
    /// The request decoder is total: arbitrary bytes decode or fail with
    /// a typed error — never a panic, never an out-of-bounds read.
    #[test]
    fn request_decoder_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200)
    ) {
        let _ = Request::decode(&bytes);
    }

    /// Same for the response decoder (the client's attack surface).
    #[test]
    fn response_decoder_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200)
    ) {
        let _ = Response::decode(&bytes);
    }

    /// Mutating any single byte of a valid frame still decodes totally.
    #[test]
    fn corrupted_valid_frames_decode_totally(pos in 0usize..64, val in any::<u8>()) {
        let mut frame = Request::Query {
            lang: Lang::Sesql,
            deadline_ms: 250,
            text: "SELECT name FROM landfill LIMIT 1".into(),
        }
        .encode();
        let idx = pos % frame.len();
        frame[idx] = val;
        let _ = Request::decode(&frame);
    }
}

/// Fixed corpus: each malformed shape maps to its specific typed error.
#[test]
fn malformed_frame_corpus_yields_typed_errors() {
    // Unknown request tag.
    assert_eq!(Request::decode(&[0x7f]), Err(ProtocolError::UnknownRequest(0x7f)));
    // Truncated HELLO: tag + partial length prefix.
    assert!(matches!(
        Request::decode(&[0x01, 0x05, 0x00]),
        Err(ProtocolError::Truncated { .. })
    ));
    // HELLO whose string length runs past the payload.
    assert!(matches!(
        Request::decode(&[0x01, 0xff, 0x00, 0x00, 0x00, b'a']),
        Err(ProtocolError::Truncated { .. })
    ));
    // Query with an unknown language byte.
    let mut q = vec![0x02, 9];
    q.extend_from_slice(&0u32.to_le_bytes());
    q.extend_from_slice(&1u32.to_le_bytes());
    q.push(b'x');
    assert_eq!(Request::decode(&q), Err(ProtocolError::BadLang(9)));
    // Invalid UTF-8 in a string field.
    let mut h = vec![0x01];
    h.extend_from_slice(&2u32.to_le_bytes());
    h.extend_from_slice(&[0xc3, 0x28]);
    assert_eq!(Request::decode(&h), Err(ProtocolError::BadUtf8));
    // Trailing garbage after a complete message.
    let mut ping = Request::Ping.encode();
    ping.push(0xaa);
    assert_eq!(Request::decode(&ping), Err(ProtocolError::TrailingBytes { extra: 1 }));
    // Error response with an unknown code byte.
    let mut e = vec![0x85, 0xee];
    e.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(Response::decode(&e), Err(ProtocolError::BadErrorCode(0xee)));
    // Row batch with a bad value tag.
    let mut rb = vec![0x83];
    rb.extend_from_slice(&1u32.to_le_bytes()); // 1 row
    rb.extend_from_slice(&1u16.to_le_bytes()); // 1 column
    rb.push(0x9c); // bad value tag
    assert_eq!(Response::decode(&rb), Err(ProtocolError::BadValueTag(0x9c)));
}

/// Malformed frames on a live connection get a typed ERROR reply (when
/// framing is intact) or a typed close (when it is not) — the server
/// never dies, and intact-framing errors don't kill the session.
#[test]
fn live_malformed_frames_answered_typed() {
    let mut handle = start(ServerConfig::default());
    let mut c = connect(&handle);

    // Valid framing, bogus payload: typed error, connection survives.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    raw.write_all(MAGIC).expect("magic");
    let mut echo = [0u8; 8];
    raw.read_exact(&mut echo).expect("echo");
    let payload = [0x7fu8; 3];
    raw.write_all(&(payload.len() as u32).to_le_bytes()).expect("len");
    raw.write_all(&payload).expect("payload");
    let reply = read_raw_frame(&mut raw);
    match Response::decode(&reply).expect("typed reply") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // Same connection still serves after the malformed frame.
    let hello = Request::Hello { user: "director".into() }.encode();
    raw.write_all(&(hello.len() as u32).to_le_bytes()).expect("len2");
    raw.write_all(&hello).expect("hello");
    let reply = read_raw_frame(&mut raw);
    assert!(matches!(
        Response::decode(&reply).expect("hello reply"),
        Response::HelloOk { .. }
    ));
    drop(raw);

    // Oversized length prefix: typed TOO_LARGE, then close.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect 2");
    raw.write_all(MAGIC).expect("magic");
    raw.read_exact(&mut echo).expect("echo");
    raw.write_all(&u32::MAX.to_le_bytes()).expect("huge len");
    let reply = read_raw_frame(&mut raw);
    match Response::decode(&reply).expect("typed reply") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
        other => panic!("expected too-large error, got {other:?}"),
    }

    // Wrong magic: silent close, no crash.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect 3");
    raw.write_all(b"GET / HT").expect("http-ish");
    let mut buf = [0u8; 16];
    // Server closes without echoing a valid magic.
    let n = raw.read(&mut buf).unwrap_or(0);
    assert!(n < 8 || &buf[..8] != MAGIC);

    // The real client still works: the server survived everything above.
    let r = c.query(Lang::Sql, "SELECT 1", 0).expect("query after abuse");
    assert!(r.error().is_none(), "{:?}", r.outcome);
    assert!(stat(&handle, "protocol_errors") >= 2);
    handle.shutdown();
}

fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame len");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}

// ---- admission control ------------------------------------------------------

/// Overload: with one execution slot and no queue, concurrent queries
/// beyond 2x capacity are shed with typed BUSY — no hangs, no panics —
/// and the server recovers to serve normally afterwards.
#[test]
fn overload_sheds_typed_busy_and_recovers() {
    let mut handle = start(ServerConfig {
        max_active: 1,
        queue_depth: 0,
        default_deadline_ms: 0,
        ..ServerConfig::default()
    });

    // Occupy the only slot with the slow cross join (bounded by its own
    // deadline so the test can't wedge).
    let addr = handle.addr();
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("holder connect");
        c.hello("director").expect("holder hello");
        c.query(Lang::Sql, SLOW_QUERY, 10_000).expect("holder query")
    });
    // Wait until the slot is actually held.
    let t0 = Instant::now();
    while stat(&handle, "active_queries") == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "slot never taken");
        std::thread::sleep(Duration::from_millis(5));
    }

    // 2×+ offered load against a capacity of 1: every extra query must
    // come back quickly with a typed BUSY.
    let shed_threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("shed connect");
                c.hello("director").expect("shed hello");
                let t0 = Instant::now();
                let r = c.query(Lang::Sql, "SELECT COUNT(*) FROM big", 0).expect("shed query");
                (r, t0.elapsed())
            })
        })
        .collect();
    for t in shed_threads {
        let (r, latency) = t.join().expect("shed thread");
        match r.outcome {
            QueryOutcome::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
            other => panic!("expected BUSY under overload, got {other:?}"),
        }
        // Shedding is immediate — bounded latency under overload.
        assert!(latency < Duration::from_secs(2), "shed took {latency:?}");
    }
    assert!(stat(&handle, "shed") >= 4);

    // The holder finishes (or hits its own deadline) and the slot frees:
    // the server serves normally again.
    let held = holder.join().expect("holder join");
    assert!(
        held.error().is_none()
            || matches!(held.outcome, QueryOutcome::Error { code: ErrorCode::DeadlineExceeded, .. }),
        "unexpected holder outcome: {:?}",
        held.outcome
    );
    let mut c = connect(&handle);
    let r = c.query(Lang::Sql, "SELECT COUNT(*) FROM big", 0).expect("recovery query");
    assert!(r.error().is_none(), "{:?}", r.outcome);
    handle.shutdown();
}

/// Queue depth > 0: a waiter outlasts the holder and then runs (FIFO),
/// instead of being shed.
#[test]
fn queued_query_runs_after_slot_frees() {
    let mut handle = start(ServerConfig {
        max_active: 1,
        queue_depth: 4,
        default_deadline_ms: 0,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.hello("director").expect("hello");
        c.query(Lang::Sql, "SELECT COUNT(*) AS n FROM big a, big b WHERE a.x < 200", 10_000)
            .expect("holder query")
    });
    let t0 = Instant::now();
    while stat(&handle, "active_queries") == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut c = connect(&handle);
    let r = c.query(Lang::Sql, "SELECT COUNT(*) FROM big", 30_000).expect("queued query");
    assert!(r.error().is_none(), "queued query should run, got {:?}", r.outcome);
    assert_eq!(r.rows, vec![vec![Value::Int(SLOW_N as i64)]]);
    holder.join().expect("holder").error();
    handle.shutdown();
}

// ---- deadlines & cancellation -----------------------------------------------

/// Engine-level: a deadline interrupts a streaming scan mid-way — typed
/// `DeadlineExceeded`, and `rows_scanned` strictly below a completed run.
#[test]
fn deadline_stops_scan_before_completion() {
    let engine = test_engine();
    let db = engine.database();
    // A streaming (non-aggregate) join of two DISTINCT tables: a self
    // cross join would share one spooled scan (charged fully up front),
    // while distinct tables leave the probe side streaming — its scan
    // charges the counter batch by batch until the interrupt lands.
    db.execute("CREATE TABLE big2 (y INT)").expect("create big2");
    let values: Vec<String> = (0..SLOW_N).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO big2 VALUES {}", values.join(",")))
        .expect("fill big2");
    let prepared =
        db.prepare("SELECT big.x, big2.y FROM big, big2").expect("prepare slow");

    // Reference: the full run's scan count.
    let mut complete = prepared.execute(&Params::new()).expect("complete run");
    while let Some(r) = complete.next_row() {
        r.expect("complete rows");
    }
    let full_scan = complete.rows_scanned();
    assert!(full_scan > 0);

    // Interrupted: ambient token with a short deadline, installed on this
    // thread exactly like the server does per query.
    let token = CancelToken::with_deadline(Duration::from_millis(30));
    let _guard = token.make_current();
    let mut rows = prepared.execute(&Params::new()).expect("interrupted run starts");
    let mut saw_interrupt = None;
    while let Some(r) = rows.next_row() {
        match r {
            Ok(_) => {}
            Err(RelError::Interrupted(i)) => {
                saw_interrupt = Some(i);
                break;
            }
            Err(e) => panic!("expected Interrupted, got {e}"),
        }
    }
    assert_eq!(saw_interrupt, Some(Interrupt::DeadlineExceeded));
    assert!(
        rows.rows_scanned() < full_scan,
        "interrupted scan touched {} rows, full scan {}",
        rows.rows_scanned(),
        full_scan
    );
}

/// Over the wire: a short per-query deadline surfaces as a typed
/// `DEADLINE_EXCEEDED` response mid-stream, and the stats count it.
#[test]
fn deadline_exceeded_over_the_wire() {
    let mut handle = start(ServerConfig {
        default_deadline_ms: 0,
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);
    let r = c.query(Lang::Sql, SLOW_QUERY, 40).expect("deadline query");
    match r.outcome {
        QueryOutcome::Error { code, ref message } => {
            assert_eq!(code, ErrorCode::DeadlineExceeded, "{message}");
            assert!(message.contains("deadline"), "{message}");
        }
        ref other => panic!("expected deadline error, got {other:?}"),
    }
    assert!(stat(&handle, "deadline_exceeded") >= 1);
    // The session survives a deadline: next query runs normally.
    let ok = c.query(Lang::Sql, "SELECT COUNT(*) FROM big", 0).expect("follow-up");
    assert!(ok.error().is_none(), "{:?}", ok.outcome);
    handle.shutdown();
}

/// Cancellation also reaches SESQL enrichment and SPARQL paths (the
/// ambient token is installed for the whole pipeline).
#[test]
fn deadline_applies_to_sesql_and_sparql() {
    let mut handle = start(ServerConfig {
        default_deadline_ms: 0,
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);
    // A SESQL statement over the slow relational core.
    let r = c.query(Lang::Sesql, SLOW_QUERY, 40).expect("sesql deadline");
    match r.outcome {
        QueryOutcome::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        ref other => panic!("expected deadline error, got {other:?}"),
    }
    // SPARQL with an immediate deadline: the evaluator's batch checks trip
    // before (or while) producing solutions.
    let r = c
        .query(Lang::Sparql, "SELECT ?s ?p ?o WHERE { ?s ?p ?o }", 1)
        .expect("sparql deadline");
    if let QueryOutcome::Error { code, .. } = r.outcome {
        assert!(
            code == ErrorCode::DeadlineExceeded || code == ErrorCode::Cancelled,
            "unexpected code {code:?}"
        );
    }
    // (A fast SPARQL query may still finish inside 1ms — both outcomes
    // are legal; what matters is no hang and no panic.)
    handle.shutdown();
}

// ---- disconnect reclamation -------------------------------------------------

/// A client that starts a row-heavy query and vanishes mid-stream frees
/// its execution slot: the server notices the dead socket, drops the
/// permit, and admits the next query.
#[test]
fn disconnect_mid_stream_frees_the_slot() {
    let mut handle = start(ServerConfig {
        max_active: 1,
        queue_depth: 0,
        default_deadline_ms: 0,
        ..ServerConfig::default()
    });

    // Raw connection: handshake, hello, fire a row-heavy query, vanish.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    raw.write_all(MAGIC).expect("magic");
    let mut echo = [0u8; 8];
    raw.read_exact(&mut echo).expect("echo");
    let hello = Request::Hello { user: "director".into() }.encode();
    raw.write_all(&(hello.len() as u32).to_le_bytes()).expect("len");
    raw.write_all(&hello).expect("hello");
    let _ = read_raw_frame(&mut raw);
    // Row-heavy: the server must actually write (and fail) to notice.
    let q = Request::Query {
        lang: Lang::Sql,
        deadline_ms: 60_000,
        text: "SELECT a.x, b.x FROM big a, big b".into(),
    }
    .encode();
    raw.write_all(&(q.len() as u32).to_le_bytes()).expect("len");
    raw.write_all(&q).expect("query");
    let t0 = Instant::now();
    while stat(&handle, "active_queries") == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "query never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(raw); // vanish mid-stream

    // The slot must free without the query running to completion: a new
    // client gets admitted (not BUSY) within the reclamation window.
    let mut c = connect(&handle);
    let t0 = Instant::now();
    loop {
        let r = c.query(Lang::Sql, "SELECT COUNT(*) FROM big", 5_000).expect("probe");
        match r.outcome {
            QueryOutcome::Done { .. } => break,
            QueryOutcome::Error { code: ErrorCode::Busy, .. } => {
                assert!(
                    t0.elapsed() < Duration::from_secs(20),
                    "slot never reclaimed after disconnect"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("unexpected probe outcome: {other:?}"),
        }
    }
    handle.shutdown();
}

// ---- shutdown ---------------------------------------------------------------

/// Graceful drain: shutdown lets a running query finish, refuses new
/// connections' queries with SHUTTING_DOWN, and returns.
#[test]
fn shutdown_drains_then_stops() {
    let mut handle = start(ServerConfig {
        default_deadline_ms: 0,
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.hello("director").expect("hello");
        c.query(Lang::Sql, "SELECT COUNT(*) AS n FROM big a, big b WHERE a.x < 150", 30_000)
            .expect("in-flight query")
    });
    let t0 = Instant::now();
    while stat(&handle, "active_queries") == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    let r = in_flight.join().expect("in-flight join");
    // Drain let it finish (or, if the drain window elapsed, it was
    // cancelled cooperatively — typed either way).
    match r.outcome {
        QueryOutcome::Done { .. } => {}
        QueryOutcome::Error { code, .. } => assert_eq!(code, ErrorCode::Cancelled),
    }
}

// ---- prepared statements ------------------------------------------------------

/// A prepared enriched statement runs its pipeline when the cursor opens,
/// so a deadline that passes there is reported like any other: by its own
/// code, counted as a deadline hit, not as a query error.
#[test]
fn prepared_execute_reports_interrupts_by_their_own_code() {
    let mut handle = start(ServerConfig {
        default_deadline_ms: 0,
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);
    let prepared = c
        .prepare(
            Lang::Sesql,
            "slow",
            "SELECT a.x AS elem_name FROM big a, big b WHERE a.x + b.x = -1 \
             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        )
        .expect("prepare frame");
    assert_eq!(prepared, Ok(0));
    let r = c.execute("slow", Vec::new(), 40).expect("execute frame");
    match r.outcome {
        QueryOutcome::Error { code, ref message } => {
            assert_eq!(code, ErrorCode::DeadlineExceeded, "{message}")
        }
        ref other => panic!("expected deadline error, got {other:?}"),
    }
    assert!(stat(&handle, "deadline_exceeded") >= 1);
    assert_eq!(stat(&handle, "query_errors"), 0);
    handle.shutdown();
}

/// Every SPARQL form runs over the wire, ad hoc and prepared: ASK is one
/// BOOL column, CONSTRUCT is `(subject, predicate, object)` rows, and a
/// `<…>` string parameter binds an IRI.
#[test]
fn sparql_forms_over_the_wire() {
    let mut handle = start(ServerConfig::default());
    let mut c = connect(&handle);
    let ask = |c: &mut Client, text: &str| {
        let r = c.query(Lang::Sparql, text, 0).expect("ask");
        assert!(r.error().is_none(), "{:?}", r.outcome);
        assert_eq!(r.columns, vec!["ask"]);
        r.rows
    };
    assert_eq!(ask(&mut c, "ASK { <Hg> <dangerLevel> ?d }"), vec![vec![Value::Bool(true)]]);
    assert_eq!(ask(&mut c, "ASK { <Nothing> <dangerLevel> ?d }"), vec![vec![Value::Bool(false)]]);

    let construct = "CONSTRUCT { ?s <hazard> ?d } \
                     WHERE { <Hg> <dangerLevel> ?d . ?s <dangerLevel> ?d }";
    let r = c.query(Lang::Sparql, construct, 0).expect("construct");
    assert!(r.error().is_none(), "{:?}", r.outcome);
    assert_eq!(r.columns, vec!["subject", "predicate", "object"]);
    let hg = vec![Value::from("Hg"), Value::from("hazard"), Value::Int(5)];
    assert!(r.rows.contains(&hg), "{:?}", r.rows);

    assert_eq!(
        c.prepare(Lang::Sparql, "has_level", "ASK { $e <dangerLevel> ?d }").expect("prepare"),
        Ok(1)
    );
    for (bound, expected) in [("<Hg>", true), ("Hg", false)] {
        let param = ParamBinding { name: "e".into(), value: Value::from(bound) };
        let r = c.execute("has_level", vec![param], 0).expect("execute");
        assert_eq!(r.rows, vec![vec![Value::Bool(expected)]], "{bound}: {:?}", r.outcome);
    }
    handle.shutdown();
}

/// A write answers `DONE` with its affected-row count and no `SCHEMA`,
/// ad hoc or prepared.
#[test]
fn writes_answer_done_without_schema() {
    let mut handle = start(ServerConfig::default());
    let mut c = connect(&handle);
    let r = c.query(Lang::Sesql, "CREATE TABLE w (a INT)", 0).expect("create");
    assert!(r.columns.is_empty() && r.rows.is_empty(), "{r:?}");
    assert!(matches!(r.outcome, QueryOutcome::Done { rows: 0, .. }), "{:?}", r.outcome);
    let prepared = c.prepare(Lang::Sql, "ins", "INSERT INTO w VALUES (1), (2)").expect("prepare");
    assert_eq!(prepared, Ok(0));
    for _ in 0..2 {
        let r = c.execute("ins", Vec::new(), 0).expect("execute");
        assert!(r.columns.is_empty(), "{r:?}");
        assert!(matches!(r.outcome, QueryOutcome::Done { rows: 2, .. }), "{:?}", r.outcome);
    }
    let r = c.query(Lang::Sql, "SELECT COUNT(*) FROM w", 0).expect("count");
    assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
    handle.shutdown();
}

/// A statement with a subquery answers from the live tables on every
/// execution, ad hoc (one shared prepared-statement memo per text) and
/// prepared: a kept plan template must not freeze the subquery's rows.
#[test]
fn subquery_answers_follow_writes_over_the_wire() {
    let mut handle = start(ServerConfig::default());
    let mut c = connect(&handle);
    let setup = "CREATE TABLE t (name TEXT, x INT); \
                 INSERT INTO t VALUES ('a', 1), ('b', 2); \
                 CREATE TABLE u (y INT); \
                 INSERT INTO u VALUES (1)";
    for statement in setup.split("; ") {
        let r = c.query(Lang::Sql, statement, 0).expect("setup");
        assert!(r.error().is_none(), "{statement}: {:?}", r.outcome);
    }
    let queries = [
        "SELECT name FROM t WHERE x IN (SELECT y FROM u) ORDER BY name",
        "SELECT name FROM t WHERE EXISTS (SELECT y FROM u WHERE y = 2) ORDER BY name",
        "SELECT (SELECT COUNT(*) FROM u) FROM t WHERE name = 'a'",
    ];
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(c.prepare(Lang::Sql, &format!("q{i}"), q).expect("prepare"), Ok(0));
    }
    let read = |c: &mut Client| -> Vec<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let ad_hoc = c.query(Lang::Sql, q, 0).expect("query");
            let prepared = c.execute(&format!("q{i}"), Vec::new(), 0).expect("execute");
            assert_eq!(ad_hoc.rows, prepared.rows, "{q}");
            out.push(ad_hoc.rows);
        }
        out
    };
    let (a, b) = (Value::from("a"), Value::from("b"));
    let before = vec![vec![vec![a.clone()]], vec![], vec![vec![Value::Int(1)]]];
    assert_eq!(read(&mut c), before);
    assert_eq!(read(&mut c), before, "second execution");
    let r = c.query(Lang::Sql, "INSERT INTO u VALUES (2)", 0).expect("insert");
    assert!(r.error().is_none(), "{:?}", r.outcome);
    let after = vec![vec![vec![a.clone()], vec![b.clone()]], vec![vec![a], vec![b]], vec![vec![Value::Int(2)]]];
    assert_eq!(read(&mut c), after);
    handle.shutdown();
}
